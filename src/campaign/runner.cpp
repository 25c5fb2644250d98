#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <thread>

#include "can/bit_error.h"
#include "support/check.h"

namespace aces::campaign {

using sim::SimTime;

// ----- histogram -------------------------------------------------------------

void LatencyHistogram::add(SimTime v) {
  if (bins.empty()) {
    return;
  }
  const auto regular = bins.size() - 1;  // last bin = overflow
  std::size_t k = regular;
  if (bin_width > 0 && v >= 0) {
    const auto idx = static_cast<std::uint64_t>(v) /
                     static_cast<std::uint64_t>(bin_width);
    k = std::min<std::size_t>(static_cast<std::size_t>(idx), regular);
  }
  ++bins[k];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  ACES_CHECK_MSG(bin_width == other.bin_width && bins.size() ==
                     other.bins.size(),
                 "cannot merge histograms with different geometry");
  for (std::size_t k = 0; k < bins.size(); ++k) {
    bins[k] += other.bins[k];
  }
}

SimTime LatencyHistogram::percentile(double p) const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : bins) {
    total += b;
  }
  if (total == 0) {
    return 0;
  }
  const double clamped = std::min(1.0, std::max(0.0, p));
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, clamped * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < bins.size(); ++k) {
    seen += bins[k];
    if (seen >= target) {
      // Upper bin edge; the overflow bucket reports the histogram ceiling
      // (the aggregate carries the exact max alongside).
      const std::size_t regular = bins.size() - 1;
      return bin_width * static_cast<SimTime>(std::min(k + 1, regular));
    }
  }
  return bin_width * static_cast<SimTime>(bins.size() - 1);
}

// ----- fingerprint -----------------------------------------------------------

namespace {

struct Fnv1a {
  std::uint64_t h = 0xCBF2'9CE4'8422'2325ull;
  void add(std::uint64_t x) {
    for (int k = 0; k < 8; ++k) {
      h ^= (x >> (8 * k)) & 0xFF;
      h *= 0x0000'0100'0000'01B3ull;
    }
  }
};

std::uint64_t fingerprint_of(const VariantResult& r) {
  Fnv1a f;
  f.add(r.index);
  f.add(r.seed);
  f.add(r.events);
  f.add(r.bit_errors);
  f.add(r.bus_off_events);
  f.add(r.overflow_drops);
  f.add(r.deadline_misses);
  f.add(r.heartbeat_misses);
  f.add(r.mitigations);
  f.add(r.recoveries);
  for (const sim::SimTime t : r.recovery_times) {
    f.add(static_cast<std::uint64_t>(t));
  }
  f.add(r.watchdog_tripped ? 1 : 0);
  for (const PathResult& p : r.paths) {
    f.add(p.frames);
    f.add(static_cast<std::uint64_t>(p.min_latency));
    f.add(static_cast<std::uint64_t>(p.max_latency));
    f.add(static_cast<std::uint64_t>(p.total_latency));
    f.add(static_cast<std::uint64_t>(p.bound));
    f.add(p.bound_schedulable ? 1 : 0);
  }
  f.add(r.violations.size());
  return f.h;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string fmt_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return buf;
}

std::string json_params(
    const std::vector<std::pair<std::string, double>>& params) {
  std::string out = "{";
  for (std::size_t k = 0; k < params.size(); ++k) {
    out += std::string(k == 0 ? "" : ", ") + "\"" + params[k].first +
           "\": " + fmt_double(params[k].second);
  }
  return out + "}";
}

}  // namespace

// ----- one variant -----------------------------------------------------------

VariantResult CampaignRunner::run_variant(const ScenarioSpec& spec,
                                          const Variant& v) const {
  VariantResult out;
  out.index = v.index;
  out.seed = v.seed;
  out.params = v.params;
  out.paths.resize(spec.paths.size());
  for (PathResult& p : out.paths) {
    p.hist.bin_width =
        std::max<SimTime>(1, config_.hist_max /
                                 std::max(1u, config_.hist_bins));
    p.hist.bins.assign(config_.hist_bins + 1, 0);
  }

  try {
    net::NetworkBuilder nb = spec.topology(v);
    net::Network net = nb.build();
    // Parallelism lives across variants: each variant runs its shards on
    // one thread, whatever the topology requested (thread count never
    // changes results).
    net.simulation().set_threads(1);

    // Per-bus fault campaigns: one Pcg32 stream per plan, derived from the
    // variant seed, and the matching analysis hypothesis keyed by bus tag.
    std::map<int, sched::CanErrorModel> hop_errors;
    for (std::size_t k = 0; k < spec.faults.size(); ++k) {
      const FaultPlan& plan = spec.faults[k];
      ACES_CHECK_MSG(plan.bus >= 0 && static_cast<std::size_t>(plan.bus) <
                         net.bus_count(),
                     "fault plan references an unknown bus");
      const SimTime period = plan.period_axis.empty()
                                 ? plan.period
                                 : v.param_ns(plan.period_axis);
      if (period <= 0 || plan.probability <= 0.0) {
        continue;
      }
      can::SeededErrorCampaign cfg;
      cfg.min_interarrival = period;
      cfg.probability = plan.probability;
      cfg.seed = v.seed;
      cfg.stream = k + 1;  // sub-stream per plan, disjoint from plan 0
      can::CanBus& bus = net.bus(plan.bus);
      bus.set_bit_error_model(can::make_seeded_error_model(bus, cfg));
      hop_errors[plan.bus] = sched::CanErrorModel{period};
    }

    // Node-lifecycle faults: crash / hang / reset / babble against declared
    // ECUs, at fixed or axis-resolved instants (<= 0 disables).
    for (const NodeFaultPlan& plan : spec.node_faults) {
      ACES_CHECK_MSG(plan.ecu >= 0 && static_cast<std::size_t>(plan.ecu) <
                         net.ecu_count(),
                     "node fault plan references an unknown ecu");
      const SimTime at =
          plan.at_axis.empty() ? plan.at : v.param_ns(plan.at_axis);
      if (at <= 0) {
        continue;
      }
      net::NodeFault fault;
      fault.kind = plan.kind;
      fault.at = at;
      fault.reboot_delay = plan.reboot_delay;
      fault.babble_frame = plan.babble_frame;
      fault.babble_period = plan.babble_period;
      net.ecu(plan.ecu).inject(fault);
    }

    // Dead-bus windows: the whole segment silent for a duration.
    for (const BusFaultPlan& plan : spec.bus_faults) {
      ACES_CHECK_MSG(plan.bus >= 0 && static_cast<std::size_t>(plan.bus) <
                         net.bus_count(),
                     "bus fault plan references an unknown bus");
      const SimTime at =
          plan.at_axis.empty() ? plan.at : v.param_ns(plan.at_axis);
      const SimTime duration = plan.duration_axis.empty()
                                   ? plan.duration
                                   : v.param_ns(plan.duration_axis);
      if (at <= 0 || duration <= 0) {
        continue;
      }
      net.bus(plan.bus).schedule_bus_dead(at, duration);
    }

    // Path probes: measure queue-to-delivery of every destination frame.
    for (std::size_t k = 0; k < spec.paths.size(); ++k) {
      const PathSpec& path = spec.paths[k];
      ACES_CHECK_MSG(path.dst_bus >= 0 && static_cast<std::size_t>(
                         path.dst_bus) < net.bus_count(),
                     "path '" + path.name + "' references an unknown bus");
      can::CanBus& bus = net.bus(path.dst_bus);
      const can::NodeId probe = bus.attach_node("probe:" + path.name);
      PathResult* res = &out.paths[k];
      bus.subscribe(probe, [res, id = path.dst_id](const can::CanFrame& f,
                                                   SimTime at) {
        if (f.id != id) {
          return;
        }
        const SimTime lat = at - f.timestamp;
        if (res->frames == 0 || lat < res->min_latency) {
          res->min_latency = lat;
        }
        res->max_latency = std::max(res->max_latency, lat);
        res->total_latency += lat;
        ++res->frames;
        res->hist.add(lat);
      });
    }

    if (spec.configure) {
      spec.configure(net, v);
    }

    // Per-variant watchdog: the event limit is deterministic (a pure
    // function of the executed-event count); the wall-clock limit is the
    // last-resort backstop for a wedged variant.
    if (config_.watchdog_events > 0 || config_.watchdog_wall_seconds > 0.0) {
      const auto started = std::chrono::steady_clock::now();
      net.simulation().set_watchdog(
          [this, started](std::uint64_t events) {
            if (config_.watchdog_events > 0 &&
                events >= config_.watchdog_events) {
              return true;
            }
            if (config_.watchdog_wall_seconds > 0.0) {
              const double elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - started).count();
              if (elapsed >= config_.watchdog_wall_seconds) {
                return true;
              }
            }
            return false;
          });
    }

    net.run_until(spec.horizon);
    out.watchdog_tripped = net.simulation().watchdog_tripped();

    // Counters. FlexRay segments carry no CAN fault model — skipped.
    for (std::size_t b = 0; b < net.bus_count(); ++b) {
      if (!net.is_can(static_cast<net::BusId>(b))) {
        continue;
      }
      const auto& fs = net.bus(static_cast<net::BusId>(b)).fault_stats();
      out.bit_errors += fs.bit_errors;
      out.bus_off_events += fs.bus_off_events;
    }
    for (std::size_t g = 0; g < net.gateway_count(); ++g) {
      out.overflow_drops +=
          net.gateway(static_cast<net::GatewayId>(g)).stats().frames_dropped;
    }
    for (std::size_t e = 0; e < net.ecu_count(); ++e) {
      if (rtos::Kernel* k = net.ecu(static_cast<net::EcuId>(e)).kernel()) {
        for (int t = 0; t < k->task_count(); ++t) {
          out.deadline_misses += k->stats(t).deadline_misses;
        }
      }
    }
    out.events = net.simulation().stats().events_executed;

    // Supervision outcome: every supervisor the configure hook installed.
    for (std::size_t s = 0; s < net.supervisor_count(); ++s) {
      net::SupervisorNode& sup = net.supervisor(s);
      for (std::size_t m = 0; m < sup.monitor_count(); ++m) {
        const auto& st = sup.stats(static_cast<int>(m));
        out.heartbeat_misses += st.misses;
        out.mitigations += st.mitigations;
        out.recoveries += st.recoveries;
      }
      out.recovery_times.insert(out.recovery_times.end(),
                                sup.recovery_samples().begin(),
                                sup.recovery_samples().end());
    }

    // Bounds and judgment.
    for (std::size_t k = 0; k < spec.paths.size(); ++k) {
      const PathSpec& path = spec.paths[k];
      PathResult& res = out.paths[k];
      if (path.expected_period > 0) {
        const auto expected = static_cast<double>(
            spec.horizon / path.expected_period);
        res.availability = expected > 0.0
                               ? static_cast<double>(res.frames) / expected
                               : 0.0;
        if (spec.assertions.min_availability > 0.0 &&
            res.availability < spec.assertions.min_availability) {
          out.violations.push_back("path '" + path.name +
                                   "': availability " +
                                   fmt_double(res.availability) + " < " +
                                   fmt_double(
                                       spec.assertions.min_availability));
        }
      }
      if (!path.hops) {
        continue;
      }
      std::vector<sched::PathHop> hops = path.hops(v);
      // Attach this variant's fault hypotheses to hops tagged with a bus
      // under a fault plan (explicit per-hop errors win).
      for (sched::PathHop& h : hops) {
        if (h.errors.min_interarrival == 0 && h.bus >= 0) {
          const auto it = hop_errors.find(h.bus);
          if (it != hop_errors.end()) {
            h.errors = it->second;
          }
        }
      }
      const sched::PathRtaResult bound = sched::path_rta(hops);
      res.bound = bound.response;
      res.bound_schedulable = bound.schedulable;
      if (!spec.assertions.path_bounds) {
        continue;
      }
      if (!bound.schedulable) {
        out.violations.push_back("path '" + path.name +
                                 "': rta_unschedulable");
      } else if (out.bus_off_events == 0 && res.max_latency > bound.response) {
        res.bound_exceeded = true;
        out.violations.push_back("path '" + path.name + "': measured " +
                                 fmt_i64(res.max_latency) + "ns > bound " +
                                 fmt_i64(bound.response) + "ns");
      }
    }
    if (out.overflow_drops > spec.assertions.max_overflow_drops) {
      out.violations.push_back("gateway overflow drops: " +
                               fmt_u64(out.overflow_drops));
    }
    if (out.bus_off_events > spec.assertions.max_bus_off) {
      out.violations.push_back("bus-off events: " +
                               fmt_u64(out.bus_off_events));
    }
    if (spec.assertions.no_deadline_misses && out.deadline_misses > 0) {
      out.violations.push_back("deadline misses: " +
                               fmt_u64(out.deadline_misses));
    }
    if (out.watchdog_tripped) {
      out.violations.push_back("watchdog: variant stopped after " +
                               fmt_u64(out.events) + " events");
    }
  } catch (const std::exception& e) {
    // A throwing variant is a spec bug; flag it instead of tearing down
    // the whole batch (workers must never leak exceptions).
    out.violations.push_back(std::string("exception: ") + e.what());
  }

  out.fingerprint = fingerprint_of(out);
  return out;
}

// ----- the batch -------------------------------------------------------------

CampaignResult CampaignRunner::run(const ScenarioSpec& spec) const {
  ACES_CHECK_MSG(static_cast<bool>(spec.topology),
                 "ScenarioSpec::topology is required");
  const std::vector<Variant> variants = spec.expand();
  ACES_CHECK_MSG(!variants.empty(), "campaign expands to zero variants");

  CampaignResult out;
  out.spec_name = spec.name;
  out.master_seed = spec.master_seed;
  out.horizon = spec.horizon;
  out.axes = spec.axes;
  out.variants.resize(variants.size());

  unsigned workers = config_.workers != 0
                         ? config_.workers
                         : std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, variants.size()));
  out.workers = workers;

  const auto wall_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> cursor{0};
  const auto work = [&] {
    for (std::size_t k; (k = cursor.fetch_add(1)) < variants.size();) {
      // Slot k belongs to variant k alone: ordering is by variant index,
      // never by completion order.
      out.variants[k] = run_variant(spec, variants[k]);
    }
  };
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back(work);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  out.variants_per_second =
      out.wall_seconds > 0.0
          ? static_cast<double>(variants.size()) / out.wall_seconds
          : 0.0;

  // Aggregate in index order (deterministic regardless of worker count).
  out.paths.resize(spec.paths.size());
  for (std::size_t k = 0; k < spec.paths.size(); ++k) {
    auto& agg = out.paths[k];
    agg.name = spec.paths[k].name;
    agg.hist.bin_width =
        std::max<SimTime>(1, config_.hist_max /
                                 std::max(1u, config_.hist_bins));
    agg.hist.bins.assign(config_.hist_bins + 1, 0);
  }
  out.recovery_hist.bin_width =
      std::max<SimTime>(1, config_.hist_max /
                               std::max(1u, config_.hist_bins));
  out.recovery_hist.bins.assign(config_.hist_bins + 1, 0);
  std::vector<std::uint64_t> path_totals(spec.paths.size(), 0);
  for (const VariantResult& r : out.variants) {
    if (r.violating()) {
      ++out.violating_variants;
    }
    out.overflow_drops += r.overflow_drops;
    out.bus_off_events += r.bus_off_events;
    out.deadline_misses += r.deadline_misses;
    out.bit_errors += r.bit_errors;
    out.heartbeat_misses += r.heartbeat_misses;
    out.mitigations += r.mitigations;
    out.recoveries += r.recoveries;
    for (const SimTime t : r.recovery_times) {
      out.recovery_hist.add(t);
      out.recovery_max = std::max(out.recovery_max, t);
    }
    if (r.watchdog_tripped) {
      ++out.watchdog_timeouts;
    }
    for (std::size_t k = 0; k < r.paths.size(); ++k) {
      const PathResult& p = r.paths[k];
      auto& agg = out.paths[k];
      if (p.frames > 0) {
        if (agg.frames == 0 || p.min_latency < agg.min_latency) {
          agg.min_latency = p.min_latency;
        }
        agg.max_latency = std::max(agg.max_latency, p.max_latency);
        agg.frames += p.frames;
        path_totals[k] += static_cast<std::uint64_t>(p.total_latency);
      }
      agg.hist.merge(p.hist);
      if (p.bound_exceeded) {
        ++agg.bound_exceeded_variants;
        ++out.rta_violations;
      }
      if (p.bound > 0 && !p.bound_schedulable) {
        ++agg.unschedulable_variants;
      }
      if (p.availability >= 0.0) {
        if (agg.min_availability < 0.0 ||
            p.availability < agg.min_availability) {
          agg.min_availability = p.availability;
        }
      }
    }
  }
  for (std::size_t k = 0; k < out.paths.size(); ++k) {
    auto& agg = out.paths[k];
    agg.mean_latency =
        agg.frames == 0 ? 0.0
                        : static_cast<double>(path_totals[k]) /
                              static_cast<double>(agg.frames);
    agg.p99_latency = agg.hist.percentile(0.99);
    out.unschedulable += agg.unschedulable_variants;
    if (spec.paths[k].expected_period > 0) {
      const double expected =
          static_cast<double>(spec.horizon / spec.paths[k].expected_period) *
          static_cast<double>(out.variants.size());
      agg.availability = expected > 0.0
                             ? static_cast<double>(agg.frames) / expected
                             : 0.0;
    }
  }
  out.recovery_p99 = out.recovery_hist.percentile(0.99);
  return out;
}

VariantResult CampaignRunner::replay(const ScenarioSpec& spec,
                                     std::uint32_t index,
                                     std::uint64_t seed) const {
  const Variant v = spec.variant(index);
  ACES_CHECK_MSG(v.seed == seed,
                 "replay seed does not match this spec's derivation for the "
                 "given index — the (spec, seed) pair belongs to a "
                 "different spec revision");
  return run_variant(spec, v);
}

// ----- report ----------------------------------------------------------------

const VariantResult* CampaignResult::first_violating() const {
  for (const VariantResult& r : variants) {
    if (r.violating()) {
      return &r;
    }
  }
  return nullptr;
}

std::string CampaignResult::to_json(bool with_timing,
                                    std::size_t max_listed_violations) const {
  std::string j = "{\n";
  j += "  \"bench\": \"campaign\",\n";
  j += "  \"spec\": \"" + spec_name + "\",\n";
  j += "  \"master_seed\": " + fmt_u64(master_seed) + ",\n";
  j += "  \"horizon_ns\": " + fmt_i64(horizon) + ",\n";
  j += "  \"variants\": " + fmt_u64(variants.size()) + ",\n";
  j += "  \"axes\": [";
  for (std::size_t k = 0; k < axes.size(); ++k) {
    j += std::string(k == 0 ? "" : ",") + "\n    {\"name\": \"" +
         axes[k].name + "\", \"values\": [";
    for (std::size_t i = 0; i < axes[k].values.size(); ++i) {
      j += std::string(i == 0 ? "" : ", ") + fmt_double(axes[k].values[i]);
    }
    j += "]}";
  }
  j += axes.empty() ? "],\n" : "\n  ],\n";
  j += "  \"paths\": [";
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const PathAggregate& p = paths[k];
    j += std::string(k == 0 ? "" : ",") + "\n    {\"name\": \"" + p.name +
         "\", \"frames\": " + fmt_u64(p.frames) +
         ", \"min_ns\": " + fmt_i64(p.min_latency) +
         ", \"mean_ns\": " + fmt_double(p.mean_latency) +
         ", \"p99_ns\": " + fmt_i64(p.p99_latency) +
         ", \"max_ns\": " + fmt_i64(p.max_latency) +
         ",\n     \"bound_exceeded_variants\": " +
         fmt_u64(p.bound_exceeded_variants) +
         ", \"unschedulable_variants\": " +
         fmt_u64(p.unschedulable_variants) +
         (p.availability >= 0.0
              ? ",\n     \"availability\": " + fmt_double(p.availability) +
                    ", \"min_availability\": " +
                    fmt_double(p.min_availability)
              : std::string()) +
         ",\n     \"histogram\": {\"bin_width_ns\": " +
         fmt_i64(p.hist.bin_width) + ", \"counts\": [";
    for (std::size_t i = 0; i < p.hist.bins.size(); ++i) {
      j += std::string(i == 0 ? "" : ",") + fmt_u64(p.hist.bins[i]);
    }
    j += "]}}";
  }
  j += paths.empty() ? "],\n" : "\n  ],\n";
  j += "  \"counters\": {\"violating_variants\": " +
       fmt_u64(violating_variants) +
       ", \"rta_violations\": " + fmt_u64(rta_violations) +
       ", \"unschedulable\": " + fmt_u64(unschedulable) +
       ",\n    \"overflow_drops\": " + fmt_u64(overflow_drops) +
       ", \"bus_off_events\": " + fmt_u64(bus_off_events) +
       ", \"deadline_misses\": " + fmt_u64(deadline_misses) +
       ", \"bit_errors\": " + fmt_u64(bit_errors) + "},\n";
  j += "  \"supervision\": {\"heartbeat_misses\": " +
       fmt_u64(heartbeat_misses) + ", \"mitigations\": " +
       fmt_u64(mitigations) + ", \"recoveries\": " + fmt_u64(recoveries) +
       ",\n    \"recovery_p99_ns\": " + fmt_i64(recovery_p99) +
       ", \"recovery_max_ns\": " + fmt_i64(recovery_max) +
       ", \"watchdog_timeouts\": " + fmt_u64(watchdog_timeouts) + "},\n";
  std::uint64_t listed = 0;
  j += "  \"violating_variants\": {\"total\": " +
       fmt_u64(violating_variants) + ", \"entries\": [";
  for (const VariantResult& r : variants) {
    if (!r.violating() || listed >= max_listed_violations) {
      continue;
    }
    j += std::string(listed == 0 ? "" : ",") +
         "\n    {\"index\": " + fmt_u64(r.index) +
         ", \"seed\": " + fmt_u64(r.seed) + ", \"params\": " +
         json_params(r.params) + ",\n     \"reasons\": [";
    for (std::size_t k = 0; k < r.violations.size(); ++k) {
      j += std::string(k == 0 ? "" : ", ") + "\"" + r.violations[k] + "\"";
    }
    j += "]}";
    ++listed;
  }
  j += listed == 0 ? "], \"listed\": 0}" : "\n  ], \"listed\": " +
                                               fmt_u64(listed) + "}";
  if (with_timing) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\n  \"timing\": {\"workers\": %u, \"wall_seconds\": "
                  "%.3f, \"variants_per_second\": %.1f}",
                  workers, wall_seconds, variants_per_second);
    j += buf;
  }
  j += "\n}\n";
  return j;
}

}  // namespace aces::campaign

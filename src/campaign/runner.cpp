#include "campaign/runner.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "can/bit_error.h"
#include "support/check.h"
#include "support/json.h"
#include "support/worker_pool.h"

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

// Every histogram of a campaign has this geometry, so they merge.
LatencyHistogram empty_histogram(const CampaignRunner::Config& c) {
  LatencyHistogram h;
  h.bin_width = std::max<SimTime>(1, c.hist_max / std::max(1u, c.hist_bins));
  h.bins.assign(c.hist_bins + 1, 0);
  return h;
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
    p.hist = empty_histogram(config_);
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
          out.violations.push_back(
              "path '" + path.name + "': availability " +
              support::format_g6(res.availability) + " < " +
              support::format_g6(spec.assertions.min_availability));
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
        out.violations.push_back(
            "path '" + path.name + "': measured " +
            std::to_string(res.max_latency) + "ns > bound " +
            std::to_string(bound.response) + "ns");
      }
    }
    if (out.overflow_drops > spec.assertions.max_overflow_drops) {
      out.violations.push_back("gateway overflow drops: " +
                               std::to_string(out.overflow_drops));
    }
    if (out.bus_off_events > spec.assertions.max_bus_off) {
      out.violations.push_back("bus-off events: " +
                               std::to_string(out.bus_off_events));
    }
    if (spec.assertions.no_deadline_misses && out.deadline_misses > 0) {
      out.violations.push_back("deadline misses: " +
                               std::to_string(out.deadline_misses));
    }
    if (out.watchdog_tripped) {
      out.violations.push_back("watchdog: variant stopped after " +
                               std::to_string(out.events) + " events");
    }
  } catch (const std::exception& e) {
    // A throwing variant is a spec bug; flag it instead of tearing down
    // the whole batch. Anything that is not a std::exception reaches the
    // caller of run() through the worker pool, at every worker count.
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

  out.workers = static_cast<unsigned>(std::min<std::size_t>(
      support::resolve_threads(config_.workers), variants.size()));

  const auto wall_start = std::chrono::steady_clock::now();
  // Slot k belongs to variant k alone: ordering is by variant index, never
  // by completion order.
  support::WorkerPool(out.workers).run(variants.size(), [&](std::size_t k) {
    out.variants[k] = run_variant(spec, variants[k]);
  });
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
    agg.hist = empty_histogram(config_);
  }
  out.recovery_hist = empty_histogram(config_);
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

void CampaignResult::write_json(support::JsonWriter& w,
                                bool with_timing) const {
  w.begin_object(2).field("bench", "campaign").field("spec", spec_name);
  w.field("master_seed", master_seed).field("horizon_ns", horizon);
  w.field("variants", variants.size());
  w.key("axes").begin_array(4);
  for (const SweepAxis& axis : axes) {
    w.begin_object().field("name", axis.name);
    w.key("values").begin_array().values(axis.values).end().end();
  }
  w.end().key("paths").begin_array(4);
  for (const PathAggregate& p : paths) {
    w.begin_object().field("name", p.name).field("frames", p.frames);
    w.field("min_ns", p.min_latency).field("mean_ns", p.mean_latency);
    w.field("p99_ns", p.p99_latency).field("max_ns", p.max_latency);
    w.line(5).field("bound_exceeded_variants", p.bound_exceeded_variants);
    w.field("unschedulable_variants", p.unschedulable_variants);
    if (p.availability >= 0.0) {
      w.line(5).field("availability", p.availability);
      w.field("min_availability", p.min_availability);
    }
    w.line(5).key("histogram").begin_object();
    w.field("bin_width_ns", p.hist.bin_width).key("counts");
    w.begin_array(support::JsonWriter::kPacked).values(p.hist.bins);
    w.end().end().end();
  }
  w.end().key("counters").begin_object();
  w.field("violating_variants", violating_variants);
  w.field("rta_violations", rta_violations);
  w.field("unschedulable", unschedulable);
  w.line(4).field("overflow_drops", overflow_drops);
  w.field("bus_off_events", bus_off_events);
  w.field("deadline_misses", deadline_misses);
  w.field("bit_errors", bit_errors).end();
  w.key("supervision").begin_object();
  w.field("heartbeat_misses", heartbeat_misses);
  w.field("mitigations", mitigations).field("recoveries", recoveries);
  w.line(4).field("recovery_p99_ns", recovery_p99);
  w.field("recovery_max_ns", recovery_max);
  w.field("watchdog_timeouts", watchdog_timeouts).end();
  w.key("violating_variants").begin_object();
  w.field("total", violating_variants).key("entries").begin_array(4);
  std::uint64_t listed = 0;
  for (const VariantResult& r : variants) {
    if (!r.violating() || listed >= kMaxListedViolations) {
      continue;
    }
    w.begin_object().field("index", r.index).field("seed", r.seed);
    w.key("params").begin_object();
    for (const auto& [name, value] : r.params) {
      w.field(name, value);
    }
    w.end().line(5).key("reasons").begin_array().values(r.violations);
    w.end().end();
    ++listed;
  }
  w.end().field("listed", listed).end();
  if (with_timing) {
    w.key("timing").begin_object().field("workers", workers);
    w.field("wall_seconds", wall_seconds);
    w.field("variants_per_second", variants_per_second).end();
  }
  w.end();
}

std::string CampaignResult::to_json(bool with_timing) const {
  support::JsonWriter w;
  write_json(w, with_timing);
  return w.str();
}

}  // namespace aces::campaign

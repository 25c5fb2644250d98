// The `campaign` workload: campaign::presets::vehicle_spec — the
// model-fidelity 3-bus vehicle swept over bit-error period, gateway depth,
// load and FD backbone — with kReplicates seeds per grid point and the
// master seed taken from --seed. Every variant builds a network, runs it
// to the horizon on one shard thread, and is judged against its path_rta
// bounds. Seeded bit errors are injected on the classic-only buses: the
// library's seeded bit-error model serializes every frame it corrupts as
// a classic frame and aborts on a CAN FD one (can/bit_error.cpp), so a
// plan on the FD backbone would stop every FD variant short of the
// horizon.
#include <algorithm>
#include <set>
#include <string>

#include "campaign/presets.h"
#include "campaign/runner.h"
#include "netbench.h"
#include "support/check.h"
#include "support/splitmix.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sim::SimTime;

constexpr std::uint32_t kReplicates = 8;
// FNV-1a of the deterministic report (to_json(false)) at kDefaultSeed.
constexpr std::uint64_t kDefaultReport = 0xb2d0'7b55'97a5'd9c9ull;
// The run fingerprint of variant 0's network run standalone at kDefaultSeed.
constexpr std::uint64_t kDefaultVariantRun = 0x688e'a01c'c816'347cull;

struct Setup {
  campaign::ScenarioSpec spec;
  double seconds = 0.0;
};

// The buses that carry CAN FD frames in some variant of the preset: the
// ones its routed paths cross at a data-phase bit rate.
const std::set<int>& fd_buses() {
  static const std::set<int> buses = [] {
    const campaign::ScenarioSpec spec = campaign::presets::vehicle_spec();
    std::set<int> out;
    for (const campaign::Variant& v : spec.expand()) {
      for (const campaign::PathSpec& p : spec.paths) {
        for (const sched::PathHop& h : p.hops(v)) {
          if (h.data_bitrate_bps != 0) {
            out.insert(h.bus);
          }
        }
      }
    }
    ACES_CHECK(!out.empty());
    return out;
  }();
  return buses;
}

// Spec construction and expansion: everything before the first simulated
// instant of a campaign.
Setup set_up(std::uint64_t seed) {
  const std::set<int>& fd = fd_buses();
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.spec = campaign::presets::vehicle_spec();
  s.spec.master_seed = seed;
  s.spec.replicates = kReplicates;
  std::erase_if(s.spec.faults, [&fd](const campaign::FaultPlan& f) {
    return fd.contains(f.bus);
  });
  const std::vector<campaign::Variant> variants = s.spec.expand();
  s.seconds = seconds_between(t0, Clock::now());
  ACES_CHECK(!variants.empty());
  return s;
}

// Set-ups averaged into one setup_s sample: a single set-up takes tens of
// microseconds, too short to time steadily on its own.
constexpr int kSetupsPerSample = 50;
// Samples taken before each batch. The figure is the fastest sample, and a
// run holds only a few dozen batches.
constexpr int kSetupSamplesPerBatch = 8;

double setup_seconds(std::uint64_t seed) {
  double total = 0.0;
  for (int k = 0; k < kSetupsPerSample; ++k) {
    total += set_up(seed).seconds;
  }
  return total / kSetupsPerSample;
}

std::uint64_t report_hash(const campaign::CampaignResult& r) {
  Fnv1a f;
  f.add_bytes(r.to_json(false));
  return f.h;
}

// The exception a variant's run threw, as the runner reports it (an
// "exception:" violation), or null. Such a run stopped short of the
// horizon at an unknown instant.
[[nodiscard]] const std::string* exception_of(
    const campaign::VariantResult& v) {
  for (const std::string& why : v.violations) {
    if (why.rfind("exception:", 0) == 0) {
      return &why;
    }
  }
  return nullptr;
}

[[nodiscard]] bool fault_free(const campaign::VariantResult& v) {
  for (const auto& [axis, value] : v.params) {
    if (axis == "error_period_ns") {
      return value == 0.0;
    }
  }
  return true;
}

// One campaign run. Only its timing is kept, so memory use does not grow
// with the number of batches a run fits in.
struct Batch {
  double seconds = 0.0;
  std::size_t variants = 0;
  std::size_t completed = 0;  // variants that ran to the horizon
};

// Runs `spec` and checks the batch: the deterministic report reproduces,
// fault-free variants stay within their bounds, and one sampled variant
// replays fingerprint-exactly. The first result is moved into `*first`.
//
// With `fastest` (one worker only) the batch is also timed per variant and
// (*fastest)[k] keeps variant k's fastest time over the batches. One
// worker runs the variants on this thread in index order, each starting
// with its topology callback, so variant k lasts from its topology call
// to the next one's (the first from the batch start, the last to its end).
Batch run_batch(const campaign::ScenarioSpec& spec, unsigned workers,
                std::vector<double>* fastest, std::uint64_t sample,
                Checks& checks, std::uint64_t* reference,
                campaign::CampaignResult* first) {
  campaign::CampaignRunner::Config cfg;
  cfg.workers = workers;
  const campaign::CampaignRunner runner(cfg);
  std::vector<Clock::time_point> starts;
  campaign::ScenarioSpec timed = spec;
  if (fastest != nullptr) {
    starts.reserve(fastest->size());
    timed.topology = [&starts, inner = spec.topology](
                         const campaign::Variant& v) {
      starts.push_back(Clock::now());
      return inner(v);
    };
  }
  Batch b;
  const Clock::time_point t0 = Clock::now();
  campaign::CampaignResult result = runner.run(timed);
  const Clock::time_point t1 = Clock::now();
  b.seconds = seconds_between(t0, t1);
  b.variants = result.variants.size();
  if (fastest != nullptr) {
    checks.expect(starts.size() == b.variants,
                  "campaign: one topology call per variant");
  }
  if (fastest != nullptr && starts.size() == b.variants) {
    starts.front() = t0;
    starts.push_back(t1);
    fastest->resize(b.variants, b.seconds);
    for (std::size_t k = 0; k < b.variants; ++k) {
      (*fastest)[k] =
          std::min((*fastest)[k], seconds_between(starts[k], starts[k + 1]));
    }
  }
  for (const campaign::VariantResult& v : result.variants) {
    // The runner turns a library exception into a violation; it is a
    // library defect, not a judgment on the variant.
    const std::string* e = exception_of(v);
    b.completed += e == nullptr ? 1 : 0;
    checks.expect(e == nullptr, "campaign: variant " +
                                    std::to_string(v.index) +
                                    " ran to the horizon" +
                                    (e != nullptr ? " (" + *e + ")" : ""));
  }

  const std::uint64_t h = report_hash(result);
  if (*reference == 0) {
    *reference = h;
    if (spec.master_seed == kDefaultSeed) {
      checks.expect(h == kDefaultReport,
                    "campaign: default-seed report hash " + hex64(h) +
                        " equals the recorded " + hex64(kDefaultReport));
    }
  }
  checks.expect(h == *reference, "campaign: report hash " + hex64(h) +
                                     " reproduces " + hex64(*reference));
  for (const campaign::VariantResult& v : result.variants) {
    if (!fault_free(v)) {
      continue;
    }
    bool sound = true;
    for (const campaign::PathResult& p : v.paths) {
      sound = sound && p.frames > 0 && p.bound_schedulable &&
              p.max_latency <= p.bound;
    }
    checks.expect(sound, "campaign: fault-free variant " +
                             std::to_string(v.index) +
                             " measured latency within its bounds");
  }
  const auto index =
      static_cast<std::uint32_t>(sample % result.variants.size());
  const campaign::VariantResult& want = result.variants[index];
  const campaign::VariantResult got =
      campaign::CampaignRunner().replay(spec, index, want.seed);
  checks.expect(got.fingerprint == want.fingerprint,
                "campaign: replay of variant " + std::to_string(index) +
                    " is fingerprint-exact");
  if (first->variants.empty()) {
    *first = std::move(result);
  }
  return b;
}

// Timestamps delimiting one traced replay, set from the spec's callbacks.
// A variant that throws mid-run never reaches the later callbacks; its
// unreached marks stay at the replay's end.
struct ReplayMarks {
  Clock::time_point topology_start;
  Clock::time_point topology_end;
  Clock::time_point configure;  // built; the clock is about to start
  Clock::time_point analysis;   // first bound callback after the run
  bool analysing = false;

  void reset(Clock::time_point start) {
    topology_start = topology_end = start;
    configure = analysis = Clock::time_point::max();
    analysing = false;
  }
  void close(Clock::time_point end) {
    configure = std::min(configure, end);
    analysis = std::min(analysis, end);
  }
};

// A copy of `spec` whose public callbacks stamp `marks`; results are
// unchanged (configure is a no-op, topology and hops forward).
campaign::ScenarioSpec instrumented(const campaign::ScenarioSpec& spec,
                                    ReplayMarks* marks) {
  campaign::ScenarioSpec s = spec;
  s.topology = [marks, inner = spec.topology](const campaign::Variant& v) {
    marks->topology_start = Clock::now();
    net::NetworkBuilder nb = inner(v);
    marks->topology_end = Clock::now();
    return nb;
  };
  s.configure = [marks, inner = spec.configure](net::Network& net,
                                                const campaign::Variant& v) {
    if (inner) {
      inner(net, v);
    }
    marks->configure = Clock::now();
  };
  for (campaign::PathSpec& p : s.paths) {
    if (!p.hops) {
      continue;
    }
    p.hops = [marks, inner = p.hops](const campaign::Variant& v) {
      if (!marks->analysing) {
        marks->analysing = true;
        marks->analysis = Clock::now();
      }
      return inner(v);
    };
  }
  return s;
}

// Variant 0 of the spec — fault-free, the lightest load, classic CAN —
// as a standalone closed-loop network workload: its topology run to the
// spec's horizon without the runner, with the spec's routed paths and
// their bounds. The traced run measures the scheduler, CAN and gateway
// layers of a campaign variant on it the way it measures `vehicle`.
class VariantNetwork final : public NetWorkload {
 public:
  VariantNetwork(const campaign::ScenarioSpec& spec, std::uint64_t seed)
      : spec_(spec), variant_(spec.variant(0)), seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "campaign"; }
  [[nodiscard]] std::uint64_t seed() const override { return seed_; }
  [[nodiscard]] SimTime slice() const override {
    return 10 * sim::kMillisecond;
  }
  [[nodiscard]] std::uint64_t default_fingerprint() const override {
    return kDefaultVariantRun;
  }

  [[nodiscard]] NetScenario describe(Tracer* /*tracer*/) const override {
    NetScenario s;
    s.builder = spec_.topology(variant_);
    s.horizon = spec_.horizon;
    for (const campaign::PathSpec& p : spec_.paths) {
      s.paths.push_back({p.name, p.dst_bus, p.dst_id});
    }
    return s;
  }

  [[nodiscard]] std::vector<sched::PathRtaResult> bounds() const override {
    std::vector<sched::PathRtaResult> out;
    for (const campaign::PathSpec& p : spec_.paths) {
      out.push_back(sched::path_rta(p.hops(variant_)));
    }
    return out;
  }

  void check(net::Network& /*net*/, const std::vector<BusProbe>& /*probes*/,
             Checks& /*checks*/, Fnv1a& /*fingerprint*/) const override {}

 private:
  const campaign::ScenarioSpec& spec_;
  campaign::Variant variant_;
  std::uint64_t seed_;
};

}  // namespace

Outcome run_campaign(const Options& opt, const Host& host) {
  Outcome out;
  // The end-to-end batches run on one worker: with every hardware thread
  // busy, the host's other tenants swung batch throughput by a third
  // between runs. The library-default pool is measured in the traced run
  // (campaign.worker_speedup).
  const unsigned workers = host.thread_request();  // 0: library default
  std::uint64_t reference = 0;
  campaign::CampaignResult result;  // of the first batch
  std::vector<double> setups;
  std::vector<double> fastest;  // per variant, over one-worker batches
  support::SplitMix64 sampler(opt.seed);
  const auto batches = [&](unsigned w, double budget_s, int min_batches,
                           CpuRotation* cpus) {
    std::vector<Batch> bs;
    const Clock::time_point t0 = Clock::now();
    while (static_cast<int>(bs.size()) < min_batches ||
           seconds_between(t0, Clock::now()) < budget_s) {
      if (cpus != nullptr) {
        cpus->tick();
      }
      for (int k = 0; k < kSetupSamplesPerBatch; ++k) {
        setups.push_back(setup_seconds(opt.seed));
      }
      bs.push_back(run_batch(set_up(opt.seed).spec, w,
                             w == 1 ? &fastest : nullptr, sampler.next(),
                             out.checks, &reference, &result));
    }
    return bs;
  };
  const double horizon_s =
      static_cast<double>(set_up(opt.seed).spec.horizon) / 1e9;
  const auto note_batches = [&](const std::vector<Batch>& bs) {
    out.note("workers", std::to_string(result.workers));
    out.note("default_workers",
             std::to_string(std::min<std::size_t>(
                 workers != 0 ? workers : host.hardware_concurrency,
                 bs.front().variants)));
    out.note("variants", std::to_string(bs.front().variants));
    out.note("variants_threw",
             std::to_string(bs.front().variants - bs.front().completed));
    out.note("batches", std::to_string(bs.size()));
  };

  if (!opt.trace) {
    // Each variant's fastest run and the fastest set-up: the ones least
    // slowed by the host. A batch takes most of a second, so on a loaded
    // host even the fastest of a run's batches is slowed; single variants
    // (milliseconds) find the host's quiet moments. Each batch runs on the
    // next CPU.
    CpuRotation cpus(0.5);
    const std::vector<Batch> bs = batches(1, opt.seconds, 3, &cpus);
    double best_s = 0.0;
    for (const double v : fastest) {
      best_s += v;
    }
    // Simulated seconds per host second count only the variants that ran
    // to the horizon.
    out.add("sim_rate",
            static_cast<double>(bs.front().completed) * horizon_s / best_s,
            "s/s");
    out.add("variants_per_s",
            static_cast<double>(bs.front().variants) / best_s, "1/s");
    out.add("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    note_batches(bs);
    out.note("cpu_moves", std::to_string(cpus.moves()) + " over " +
                              std::to_string(cpus.cpus()) + " CPUs");
    note_distribution(out, "batch", each(bs, [](const Batch& b) {
                        return 1e3 * b.seconds;
                      }));
    out.note("report_hash", hex64(reference));
    return out;
  }

  Tracer tracer;
  const double budget = opt.seconds;
  // (a) untraced batches on one worker, as in the end-to-end run; (b) on
  //     the library-default pool.
  const std::vector<Batch> single = batches(1, 0.2 * budget, 2, nullptr);
  const std::vector<Batch> pool = batches(workers, 0.15 * budget, 2, nullptr);
  const campaign::ScenarioSpec spec = set_up(opt.seed).spec;
  const std::size_t count = result.variants.size();

  // (c) single-variant replays, cycling from a seeded start: each variant
  //     is replayed untraced and traced, in alternating order, so the two
  //     differ only in tracing. Every replay must reproduce the batch
  //     fingerprint.
  const campaign::CampaignRunner runner;
  const auto replay = [&](const campaign::ScenarioSpec& s,
                          std::uint32_t index) {
    const campaign::VariantResult r =
        runner.replay(s, index, result.variants[index].seed);
    out.checks.expect(r.fingerprint == result.variants[index].fingerprint,
                      "campaign: replay of variant " + std::to_string(index) +
                          " is fingerprint-exact");
  };
  std::vector<double> plain_s;
  const auto replay_plain = [&](std::uint32_t index) {
    const Clock::time_point r0 = Clock::now();
    replay(spec, index);
    plain_s.push_back(seconds_between(r0, Clock::now()));
  };
  ReplayMarks marks;
  const campaign::ScenarioSpec traced = instrumented(spec, &marks);
  std::vector<double> traced_s;
  double build = 0.0;
  double run = 0.0;
  double analysis = 0.0;
  const auto replay_traced = [&](std::uint32_t index) {
    Tracer::Scope span(&tracer, "campaign.replay");
    const Clock::time_point r0 = Clock::now();
    marks.reset(r0);
    replay(traced, index);
    const Clock::time_point r1 = Clock::now();
    marks.close(r1);
    tracer.record("net.describe", marks.topology_start, marks.topology_end);
    tracer.record("net.build", marks.topology_end, marks.configure);
    tracer.record("sim.run", marks.configure, marks.analysis);
    tracer.record("sched.analysis", marks.analysis, r1);
    traced_s.push_back(seconds_between(r0, r1));
    build += seconds_between(marks.topology_start, marks.configure);
    run += seconds_between(marks.configure, marks.analysis);
    analysis += seconds_between(marks.analysis, r1);
  };
  std::uint64_t next = sampler.next();
  const Clock::time_point t0 = Clock::now();
  while (plain_s.size() < 4 ||
         seconds_between(t0, Clock::now()) < 0.3 * budget) {
    const auto index = static_cast<std::uint32_t>(next++ % count);
    if (plain_s.size() % 2 == 0) {
      replay_plain(index);
      replay_traced(index);
    } else {
      replay_traced(index);
      replay_plain(index);
    }
  }

  // (d) the scheduler, CAN, gateway and path_rta layers of one variant's
  //     network, and the ISS probe.
  add_layer_metrics(VariantNetwork(spec, opt.seed), 0.35 * budget, host,
                    tracer, out);

  // The fault-driven counts are the batch's, over every variant.
  std::uint64_t events = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t drops = 0;
  std::uint64_t misses = 0;
  double margin = 1.0;
  for (const campaign::VariantResult& vr : result.variants) {
    events += vr.events;
    bit_errors += vr.bit_errors;
    drops += vr.overflow_drops;
    misses += vr.deadline_misses;
    if (vr.bus_off_events != 0) {
      continue;
    }
    for (const campaign::PathResult& p : vr.paths) {
      if (p.bound_schedulable && p.bound > 0 && p.frames > 0) {
        margin = std::min(margin, static_cast<double>(p.bound - p.max_latency) /
                                      static_cast<double>(p.bound));
      }
    }
  }
  out.set("sim.events", static_cast<double>(events));
  out.set("can.bit_errors", static_cast<double>(bit_errors));
  out.set("net.gw_dropped", static_cast<double>(drops));
  out.set("sched.bound_margin_min", margin);
  out.set("rtos.deadline_misses", static_cast<double>(misses));
  std::vector<double> traced_ms;
  double total = 0.0;
  for (const double s : traced_s) {
    traced_ms.push_back(1e3 * s);
    total += s;
  }
  out.set("campaign.variant_ms_p50", quantile(traced_ms, 0.5));
  out.set("campaign.variant_ms_p99", quantile(traced_ms, 0.99));
  out.set("campaign.run_share", run / total);
  out.set("campaign.build_share", build / total);
  out.set("campaign.analysis_share", analysis / total);
  out.set("campaign.worker_speedup",
          median(each(single, [](const Batch& b) { return b.seconds; })) /
              median(each(pool, [](const Batch& b) { return b.seconds; })));
  out.set("campaign.violating",
          static_cast<double>(result.violating_variants));
  // Replays of the same variants with and without the spans and callback
  // stamps: they differ only in tracing.
  out.set("trace.overhead", median_ratio(traced_s, plain_s) - 1.0);

  note_batches(single);
  out.note("default_pool_batches", std::to_string(pool.size()));
  out.note("replays", std::to_string(plain_s.size()) + " untraced, " +
                          std::to_string(traced_s.size()) + " traced");
  out.note("report_hash", hex64(reference));
  finish_trace(tracer, opt, out);
  return out;
}

}  // namespace perfbench

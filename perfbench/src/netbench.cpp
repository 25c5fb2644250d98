#include "netbench.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "can/bus.h"
#include "cpu/system.h"

namespace perfbench {

using sim::SimTime;

namespace {

// Layer counters of one run, from the public stats the library exposes.
struct LayerCounts {
  std::uint64_t guest_insns = 0;
  std::uint64_t guest_cycles = 0;
  std::uint64_t block_insns = 0;
  std::uint64_t blocks_formed = 0;
  std::uint64_t blocks_killed = 0;
  std::uint64_t decode_hits = 0;
  std::uint64_t decode_lookups = 0;
  std::uint64_t stream_hits = 0;
  std::uint64_t stream_breaks = 0;
  std::uint64_t data_disruptions = 0;
  std::uint64_t events = 0;
  std::uint64_t slices = 0;
  std::uint64_t idle_jumps = 0;
  std::uint64_t epochs = 0;
  std::size_t shards = 0;
  unsigned threads = 0;
  std::uint64_t can_frames = 0;
  std::uint64_t bit_errors = 0;
  double util_max = 0.0;
  std::uint64_t gw_forwarded = 0;
  std::uint64_t gw_dropped = 0;
  unsigned gw_peak_queue = 0;
  std::uint64_t task_completions = 0;
  std::uint64_t deadline_misses = 0;
};

// The layer counters of a finished network.
LayerCounts collect_counts(net::Network& net, SimTime horizon) {
  LayerCounts c;
  for (std::size_t e = 0; e < net.ecu_count(); ++e) {
    net::EcuNode& ecu = net.ecu(static_cast<net::EcuId>(e));
    if (cpu::System* sys = ecu.system()) {
      cpu::Core& core = sys->core();
      c.guest_insns += core.instructions();
      c.guest_cycles += core.cycles();
      const cpu::Core::JitStats j = core.jit_stats();
      c.block_insns += j.block_instructions;
      c.blocks_formed += j.blocks_formed;
      c.blocks_killed += j.blocks_killed;
      c.decode_hits += j.decode_hits;
      c.decode_lookups += j.decode_hits + j.decode_misses;
      const mem::Flash::Stats& f = sys->flash().stats();
      c.stream_hits += f.stream_hits;
      c.stream_breaks += f.stream_breaks;
      c.data_disruptions += f.data_disruptions;
    }
    if (rtos::Kernel* k = ecu.kernel()) {
      for (int t = 0; t < k->task_count(); ++t) {
        c.task_completions += k->stats(t).completions;
        c.deadline_misses += k->stats(t).deadline_misses;
      }
    }
  }
  const sim::Simulation::Stats& s = net.simulation().stats();
  c.events = s.events_executed;
  c.slices = s.slices;
  c.idle_jumps = s.idle_jumps;
  c.epochs = net.simulation().epochs();
  c.shards = net.shard_count();
  c.threads = net.simulation().threads();
  for (std::size_t b = 0; b < net.bus_count(); ++b) {
    const auto id = static_cast<net::BusId>(b);
    if (!net.is_can(id)) {
      continue;
    }
    can::CanBus& bus = net.bus(id);
    for (const auto& [msg, st] : bus.stats()) {
      c.can_frames += st.sent;
    }
    c.bit_errors += bus.fault_stats().bit_errors;
    c.util_max = std::max(c.util_max, bus.utilization(horizon));
  }
  for (std::size_t g = 0; g < net.gateway_count(); ++g) {
    const net::GatewayNode& gw = net.gateway(static_cast<net::GatewayId>(g));
    const net::GatewayNode::Stats st = gw.stats();
    c.gw_forwarded += st.frames_forwarded;
    c.gw_dropped += st.frames_dropped;
    std::set<std::pair<net::BusId, net::BusId>> dirs;
    for (const net::Route& r : gw.routes()) {
      dirs.emplace(r.from, r.to);
    }
    for (const auto& [from, to] : dirs) {
      c.gw_peak_queue =
          std::max(c.gw_peak_queue, gw.direction(from, to).peak_queued);
    }
  }
  return c;
}

// Adds every CAN-layer frame accumulator: a per-bus subscriber on a probe
// node, tracking the routed-path destinations that live on that bus.
// `probes` must not be resized while the network runs.
void attach_probes(net::Network& net, const std::vector<RoutedPath>& paths,
                   bool keep_frames, std::vector<BusProbe>& probes) {
  probes.assign(net.bus_count(), BusProbe{});
  for (const RoutedPath& p : paths) {
    probes[static_cast<std::size_t>(p.dst_bus)].tracked.push_back(
        {p.dst_id, 0, 0});
  }
  for (std::size_t b = 0; b < net.bus_count(); ++b) {
    const auto id = static_cast<net::BusId>(b);
    if (!net.is_can(id)) {
      continue;
    }
    BusProbe* probe = &probes[b];
    probe->keep_frames = keep_frames;
    can::CanBus& bus = net.bus(id);
    const can::NodeId node = bus.attach_node("perfbench:" + net.bus_name(id));
    bus.subscribe(node, [probe](const can::CanFrame& f, SimTime at) {
      probe->fingerprint.add(f.id);
      probe->fingerprint.add(static_cast<std::uint64_t>(at));
      probe->fingerprint.add(static_cast<std::uint64_t>(f.timestamp));
      ++probe->frames;
      for (BusProbe::Tracked& t : probe->tracked) {
        if (t.id == f.id) {
          ++t.heard;
          t.worst = std::max(t.worst, at - f.timestamp);
        }
      }
      if (probe->keep_frames && probe->kept.size() < 4096) {
        probe->kept.push_back(f);
      }
    });
  }
}

// Host seconds per exact-wire-length computation over `frames`
// (can::exact_wire_bits, or fd_exact_wire_bits for FD frames), measured
// for about `budget_s`.
double wire_bits_seconds_per_frame(const std::vector<can::CanFrame>& frames,
                                   double budget_s, Tracer& tracer) {
  if (frames.empty()) {
    return 0.0;
  }
  Tracer::Scope probe(&tracer, "can.wire_bits_probe", Tracer::Kind::probe);
  std::uint64_t computed = 0;
  std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  do {
    for (const can::CanFrame& f : frames) {
      if (f.fd) {
        const can::FdWireBits w = can::fd_exact_wire_bits(f);
        sink += w.nominal_bits + w.data_bits;
      } else {
        sink += can::exact_wire_bits(f);
      }
    }
    computed += frames.size();
    t1 = Clock::now();
  } while (seconds_between(t0, t1) < budget_s);
  // The sum feeds a volatile store so the loop cannot be discarded.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return seconds_between(t0, t1) / static_cast<double>(computed);
}

// Host seconds per sched::path_rta call of the workload's bounds, measured
// for about `budget_s`.
double path_rta_seconds_per_call(const NetWorkload& w, double budget_s,
                                 Tracer& tracer) {
  Tracer::Scope probe(&tracer, "sched.path_rta_probe", Tracer::Kind::probe);
  std::uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  do {
    for (int k = 0; k < 16; ++k) {
      calls += w.bounds().size();
    }
    t1 = Clock::now();
  } while (seconds_between(t0, t1) < budget_s);
  return seconds_between(t0, t1) /
         static_cast<double>(std::max<std::uint64_t>(1, calls));
}

// How one closed-loop scenario run is made.
struct RepConfig {
  unsigned threads = 0;      // NetworkBuilder::threads request
  bool sliced = false;       // run in fixed run_for slices
  bool keep_frames = false;  // keep the frames sent, for the CAN probe
  Tracer* tracer = nullptr;  // spans around every library call
};

// A scenario built up to its first simulated instant.
struct Built {
  NetScenario scen;
  std::unique_ptr<net::Network> net;
  std::vector<BusProbe> probes;
  double build_s = 0.0;  // Network construction alone
};

// The set-up of one run: describe, build, prepare and attach the probes.
Built build(const NetWorkload& w, const RepConfig& cfg) {
  Built b;
  {
    Tracer::Scope s(cfg.tracer, "net.describe");
    b.scen = w.describe(cfg.tracer);
  }
  b.scen.builder.threads(cfg.threads);
  {
    Tracer::Scope s(cfg.tracer, "net.build");
    const Clock::time_point b0 = Clock::now();
    b.net = std::make_unique<net::Network>(b.scen.builder);
    b.build_s = seconds_between(b0, Clock::now());
  }
  w.prepare(*b.net);
  attach_probes(*b.net, b.scen.paths, cfg.keep_frames, b.probes);
  return b;
}

// Host seconds per set-up, averaged over `times` set-ups (the networks are
// torn down outside the timed spans).
double setup_seconds(const NetWorkload& w, int times) {
  RepConfig cfg;
  cfg.threads = 1;
  double total = 0.0;
  for (int k = 0; k < times; ++k) {
    const Clock::time_point t0 = Clock::now();
    const Built b = build(w, cfg);
    total += seconds_between(t0, Clock::now());
  }
  return total / times;
}

// One closed-loop scenario run.
struct Rep {
  double setup_s = 0.0;     // describe + build + probes
  double run_s = 0.0;       // run phase only
  double analysis_s = 0.0;  // path_rta bounds + checks
  double sim_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t failed = 0;  // checks this rep failed
  LayerCounts counts;
  double build_s = 0.0;  // Network construction alone
  double margin_min = 1.0;  // min over paths of (bound - worst) / bound
  std::vector<double> slice_s;
  std::vector<can::CanFrame> frames;

  [[nodiscard]] double total_s() const { return setup_s + run_s + analysis_s; }
};

Rep run_rep(const NetWorkload& w, const RepConfig& cfg, Checks& checks) {
  Tracer* tracer = cfg.tracer;
  Tracer::Scope rep_span(tracer, "bench.rep");
  Rep r;
  const std::uint64_t failed_before = checks.failed();
  const Clock::time_point t0 = Clock::now();
  Built b = build(w, cfg);
  const NetScenario& scen = b.scen;
  net::Network* net = b.net.get();
  const std::vector<BusProbe>& probes = b.probes;
  r.build_s = b.build_s;
  const Clock::time_point t1 = Clock::now();

  if (cfg.sliced) {
    const SimTime slice = w.slice();
    while (net->now() < scen.horizon) {
      const SimTime step = std::min(slice, scen.horizon - net->now());
      Tracer::Scope s(tracer, "sim.run_for");
      const Clock::time_point s0 = Clock::now();
      net->run_for(step);
      r.slice_s.push_back(seconds_between(s0, Clock::now()));
    }
  } else {
    Tracer::Scope s(tracer, "sim.run_until");
    net->run_until(scen.horizon);
  }
  const Clock::time_point t2 = Clock::now();
  std::vector<sched::PathRtaResult> bounds;
  {
    Tracer::Scope s(tracer, "sched.path_rta");
    bounds = w.bounds();
  }
  Fnv1a fp;
  {
    Tracer::Scope s(tracer, "bench.check");
    checks.expect(bounds.size() == scen.paths.size(),
                  w.name() + ": one bound per routed path");
    for (std::size_t k = 0; k < scen.paths.size() && k < bounds.size();
         ++k) {
      const RoutedPath& p = scen.paths[k];
      const BusProbe::Tracked* t =
          probes[static_cast<std::size_t>(p.dst_bus)].find(p.dst_id);
      const bool heard = t != nullptr && t->heard > 0;
      checks.expect(heard, w.name() + ": path " + p.name + " heard");
      checks.expect(bounds[k].schedulable,
                    w.name() + ": path " + p.name + " schedulable");
      checks.expect(heard && t->worst <= bounds[k].response,
                    w.name() + ": path " + p.name +
                        " measured latency within the path_rta bound");
      if (heard && bounds[k].response > 0) {
        r.margin_min = std::min(
            r.margin_min, static_cast<double>(bounds[k].response - t->worst) /
                              static_cast<double>(bounds[k].response));
      }
    }
    r.counts = collect_counts(*net, scen.horizon);
    checks.expect(r.counts.gw_dropped == 0,
                  w.name() + ": no gateway drops");
    for (const BusProbe& p : probes) {
      fp.add(p.frames);
      fp.add(p.fingerprint.h);
    }
    for (std::size_t g = 0; g < net->gateway_count(); ++g) {
      const net::GatewayNode::Stats st =
          net->gateway(static_cast<net::GatewayId>(g)).stats();
      fp.add(st.frames_forwarded);
      fp.add(st.frames_delivered);
      fp.add(st.frames_dropped);
    }
    for (std::size_t e = 0; e < net->ecu_count(); ++e) {
      if (cpu::System* sys = net->ecu(static_cast<net::EcuId>(e)).system()) {
        fp.add(sys->core().instructions());
        fp.add(sys->core().cycles());
        const mem::Flash::Stats& f = sys->flash().stats();
        fp.add(f.stream_hits);
        fp.add(f.stream_next_line);
        fp.add(f.stream_breaks);
        fp.add(f.data_disruptions);
      }
    }
    fp.add(r.counts.events);
    fp.add(r.counts.task_completions);
    w.check(*net, probes, checks, fp);
  }
  const Clock::time_point t3 = Clock::now();

  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t1, t2);
  r.analysis_s = seconds_between(t2, t3);
  r.sim_s = static_cast<double>(scen.horizon) / 1e9;
  r.fingerprint = fp.h;
  r.failed = checks.failed() - failed_before;
  if (cfg.keep_frames) {
    for (const BusProbe& p : probes) {
      r.frames.insert(r.frames.end(), p.kept.begin(), p.kept.end());
    }
  }
  return r;
}

// Runs one repetition and checks that it reproduces the run's first
// fingerprint (`*reference`, set by the first call) and, on the default
// seed, the fingerprint fixed in the workload.
Rep checked_rep(const NetWorkload& w, const RepConfig& cfg, Checks& checks,
                std::uint64_t* reference) {
  Rep r = run_rep(w, cfg, checks);
  if (*reference == 0) {
    *reference = r.fingerprint;
    if (w.seed() == kDefaultSeed) {
      checks.expect(r.fingerprint == w.default_fingerprint(),
                    w.name() + ": default-seed fingerprint " +
                        hex64(r.fingerprint) + " equals the recorded " +
                        hex64(w.default_fingerprint()));
    }
  }
  checks.expect(r.fingerprint == *reference,
                w.name() + ": run fingerprint " + hex64(r.fingerprint) +
                    " reproduces " + hex64(*reference));
  return r;
}

void note_run_shape(Outcome& out, const Rep& r, std::size_t reps,
                    const Host& host) {
  // What NetworkBuilder::threads(0) resolves to: min(hardware threads,
  // shards), with nproc standing in where it is smaller.
  const unsigned hw = host.thread_request() != 0 ? host.thread_request()
                                                 : host.hardware_concurrency;
  out.note("shards", std::to_string(r.counts.shards));
  out.note("threads", std::to_string(r.counts.threads));
  out.note("default_threads",
           std::to_string(std::min<std::size_t>(hw, r.counts.shards)));
  out.note("reps", std::to_string(reps));
  out.note("horizon_s", std::to_string(r.sim_s));
  out.note("fingerprint", hex64(r.fingerprint));
}

// Set-ups averaged into one setup_s sample: a single set-up takes well
// under a millisecond, too short to time steadily on its own.
constexpr int kSetupsPerSample = 10;

}  // namespace

void add_layer_metrics(const NetWorkload& w, double budget_s,
                       const Host& host, Tracer& tracer, Outcome& out) {
  RepConfig plain;
  plain.threads = 1;
  RepConfig sliced = plain;
  sliced.sliced = true;
  RepConfig traced = sliced;
  traced.tracer = &tracer;
  RepConfig threaded;
  threaded.threads = host.thread_request();

  std::uint64_t reference = 0;
  std::vector<Rep> plains;
  std::vector<Rep> sliceds;
  std::vector<Rep> traceds;
  std::vector<Rep> threadeds;
  const Clock::time_point t0 = Clock::now();
  while (plains.size() < 3 ||
         seconds_between(t0, Clock::now()) < 0.8 * budget_s) {
    traced.keep_frames = traceds.empty();  // one rep's frames
    plains.push_back(checked_rep(w, plain, out.checks, &reference));
    sliceds.push_back(checked_rep(w, sliced, out.checks, &reference));
    traceds.push_back(checked_rep(w, traced, out.checks, &reference));
    threadeds.push_back(checked_rep(w, threaded, out.checks, &reference));
  }
  const double ns_per_insn =
      iss_host_ns_per_insn(w.seed(), 0.1 * budget_s, &tracer, out.checks);
  const double wire_s = wire_bits_seconds_per_frame(
      traceds.front().frames, 0.05 * budget_s, tracer);
  const double rta_s = path_rta_seconds_per_call(w, 0.05 * budget_s, tracer);

  const auto run_time = [](const Rep& r) { return r.run_s; };
  const LayerCounts& c = plains.front().counts;
  const double run_s = median(each(plains, run_time));
  const double sim_s = plains.front().sim_s;
  out.add("cpu.guest_insns", static_cast<double>(c.guest_insns), "count");
  out.add("cpu.guest_cycles", static_cast<double>(c.guest_cycles), "count");
  out.add("cpu.guest_mips", static_cast<double>(c.guest_insns) / run_s / 1e6,
          "MIPS");
  out.add("cpu.block_insn_share",
          c.guest_insns == 0 ? 0.0
                             : static_cast<double>(c.block_insns) /
                                   static_cast<double>(c.guest_insns),
          "ratio");
  out.add("cpu.blocks_formed", static_cast<double>(c.blocks_formed), "count");
  out.add("cpu.blocks_killed", static_cast<double>(c.blocks_killed), "count");
  out.add("cpu.decode_hit_ratio",
          c.decode_lookups == 0 ? 0.0
                                : static_cast<double>(c.decode_hits) /
                                      static_cast<double>(c.decode_lookups),
          "ratio");
  out.add("cpu.host_ns_per_insn", ns_per_insn, "ns");
  out.add("mem.flash_stream_hits", static_cast<double>(c.stream_hits),
          "count");
  out.add("mem.flash_stream_breaks", static_cast<double>(c.stream_breaks),
          "count");
  out.add("mem.flash_data_disruptions",
          static_cast<double>(c.data_disruptions), "count");
  out.add("sim.events", static_cast<double>(c.events), "count");
  out.add("sim.slices", static_cast<double>(c.slices), "count");
  out.add("sim.idle_jumps", static_cast<double>(c.idle_jumps), "count");
  out.add("sim.shards", static_cast<double>(c.shards), "count");
  out.add("sim.threads",
          static_cast<double>(threadeds.front().counts.threads), "count");
  out.add("sim.epochs_per_sim_s", static_cast<double>(c.epochs) / sim_s,
          "1/s");
  out.add("sim.host_ns_per_event",
          c.events == 0 ? 0.0 : 1e9 * run_s / static_cast<double>(c.events),
          "ns");
  std::vector<double> slice_ms;
  for (const Rep& r : traceds) {
    for (const double v : r.slice_s) {
      slice_ms.push_back(1e3 * v);
    }
  }
  out.add("sim.slice_ms_p50", quantile(slice_ms, 0.5), "ms");
  out.add("sim.slice_ms_p99", quantile(slice_ms, 0.99), "ms");
  out.add("sim.shard_speedup", run_s / median(each(threadeds, run_time)),
          "x");
  out.add("can.frames", static_cast<double>(c.can_frames), "count");
  out.add("can.bit_errors", static_cast<double>(c.bit_errors), "count");
  out.add("can.util_max", c.util_max, "ratio");
  out.add("can.wire_bits_ns", 1e9 * wire_s, "ns");
  out.add("net.build_ms",
          1e3 * median(each(traceds, [](const Rep& r) { return r.build_s; })),
          "ms");
  out.add("net.gw_forwarded", static_cast<double>(c.gw_forwarded), "count");
  out.add("net.gw_dropped", static_cast<double>(c.gw_dropped), "count");
  out.add("net.gw_peak_queue", static_cast<double>(c.gw_peak_queue),
          "count");
  out.add("sched.path_rta_us", 1e6 * rta_s, "us");
  out.add("sched.bound_margin_min", plains.front().margin_min, "ratio");
  out.add("rtos.task_completions", static_cast<double>(c.task_completions),
          "count");
  out.add("rtos.deadline_misses", static_cast<double>(c.deadline_misses),
          "count");
  // On the network workloads a "variant" is one closed-loop scenario run
  // (describe, build, run, analyse); there is no worker pool.
  const std::vector<double> rep_ms =
      each(plains, [](const Rep& r) { return 1e3 * r.total_s(); });
  double setup = 0.0;
  double run = 0.0;
  double analysis = 0.0;
  std::uint64_t violating = 0;
  for (const Rep& r : plains) {
    setup += r.setup_s;
    run += r.run_s;
    analysis += r.analysis_s;
    violating += r.failed > 0 ? 1 : 0;
  }
  const double total = setup + run + analysis;
  out.add("campaign.variant_ms_p50", quantile(rep_ms, 0.5), "ms");
  out.add("campaign.variant_ms_p99", quantile(rep_ms, 0.99), "ms");
  out.add("campaign.run_share", run / total, "ratio");
  out.add("campaign.build_share", setup / total, "ratio");
  out.add("campaign.analysis_share", analysis / total, "ratio");
  out.add("campaign.worker_speedup", 0.0, "x");
  out.add("campaign.violating", static_cast<double>(violating), "count");
  // Sliced runs with and without spans: they differ only in tracing.
  out.add("trace.overhead",
          median_ratio(each(traceds, run_time), each(sliceds, run_time)) -
              1.0,
          "ratio");

  note_run_shape(out, plains.front(), plains.size(), host);
}

Outcome run_network_workload(const NetWorkload& w, const Options& opt,
                             const Host& host) {
  Outcome out;
  if (opt.trace) {
    Tracer tracer;
    add_layer_metrics(w, opt.seconds, host, tracer, out);
    finish_trace(tracer, opt, out);
    return out;
  }
  // End-to-end repetitions run on one shard thread: a shard barrier waits
  // for whichever worker the host descheduled, so multi-threaded run time
  // swings several-fold with other tenants' load. The library-default
  // thread count is measured in the traced run (sim.threads,
  // sim.shard_speedup). Each figure is the fastest repetition's: the one
  // least slowed by the host, where a median follows the host's load.
  // The repetitions visit every CPU in turn, half a second on each.
  CpuRotation cpus(0.5);
  RepConfig e2e;
  e2e.threads = 1;
  std::uint64_t reference = 0;
  // Only times are kept past the first repetition, so memory use does not
  // grow with the number of repetitions a run fits in.
  Rep first;
  std::vector<double> run_s;
  std::vector<double> total_s;
  std::vector<double> setups;
  const Clock::time_point t0 = Clock::now();
  while (run_s.size() < 3 || seconds_between(t0, Clock::now()) < opt.seconds) {
    cpus.tick();
    Rep r = checked_rep(w, e2e, out.checks, &reference);
    run_s.push_back(r.run_s);
    total_s.push_back(r.total_s());
    if (run_s.size() == 1) {
      first = std::move(r);
    }
    setups.push_back(setup_seconds(w, kSetupsPerSample));
  }
  const auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  out.add("sim_rate", first.sim_s / fastest(run_s), "s/s");
  out.add("variants_per_s", 1.0 / fastest(total_s), "1/s");
  out.add("setup_s", fastest(setups), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  note_run_shape(out, first, run_s.size(), host);
  out.note("cpu_moves", std::to_string(cpus.moves()) + " over " +
                            std::to_string(cpus.cpus()) + " CPUs");
  note_distribution(out, "run_phase",
                    each(run_s, [](double s) { return 1e3 * s; }));
  return out;
}

}  // namespace perfbench

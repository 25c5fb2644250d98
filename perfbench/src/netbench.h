// The closed-loop network workloads (vehicle, iss_fleet): one shared
// runner repeats a workload's scenario — describe, build, run to a
// fixed simulated horizon, analyse and check — and turns the repetitions
// into the end-to-end metrics (untraced) or the per-layer metrics (traced).
#ifndef PERFBENCH_NETBENCH_H
#define PERFBENCH_NETBENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "can/frame.h"
#include "common.h"
#include "net/network.h"
#include "sched/can_rta.h"
#include "trace.h"

namespace perfbench {

// One routed path: frames `dst_id` delivered on `dst_bus` are measured from
// their origin timestamp and must stay within the path_rta bound.
struct RoutedPath {
  std::string name;
  net::BusId dst_bus = -1;
  std::uint32_t dst_id = 0;
};

// The described scenario: a pure function of the workload's seed.
struct NetScenario {
  net::NetworkBuilder builder;
  sim::SimTime horizon = 0;
  std::vector<RoutedPath> paths;
};

// Per-bus observer state. Every subscriber on bus b writes only probes[b],
// and a bus lives on exactly one shard, so no probe is ever touched by two
// shard threads; the probes are merged on the main thread after the run.
struct BusProbe {
  Fnv1a fingerprint;  // (id, delivery instant, origin stamp) of every frame
  std::uint64_t frames = 0;
  struct Tracked {
    std::uint32_t id = 0;
    sim::SimTime worst = 0;  // worst delivery - origin timestamp
    std::uint64_t heard = 0;
  };
  std::vector<Tracked> tracked;
  bool keep_frames = false;
  std::vector<can::CanFrame> kept;  // frames as sent, for the CAN probe

  [[nodiscard]] const Tracked* find(std::uint32_t id) const {
    for (const Tracked& t : tracked) {
      if (t.id == id) {
        return &t;
      }
    }
    return nullptr;
  }
};

class NetWorkload {
 public:
  virtual ~NetWorkload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  // Guest assembly / KIR lowering and the topology description.
  [[nodiscard]] virtual NetScenario describe(Tracer* tracer) const = 0;
  // Post-build set-up before the first simulated instant (guest data
  // images); part of the timed set-up.
  virtual void prepare(net::Network& /*net*/) const {}
  // The analytic bound of every routed path, in NetScenario::paths order.
  [[nodiscard]] virtual std::vector<sched::PathRtaResult> bounds() const = 0;
  // Workload-specific checks on the finished run (guest results, ISR
  // counts), and their contribution to the run fingerprint.
  virtual void check(net::Network& net, const std::vector<BusProbe>& probes,
                     Checks& checks, Fnv1a& fingerprint) const = 0;
  // Host time per fixed run_for slice is measured at this slice length.
  [[nodiscard]] virtual sim::SimTime slice() const = 0;
  // The run fingerprint recorded for kDefaultSeed.
  [[nodiscard]] virtual std::uint64_t default_fingerprint() const = 0;
  [[nodiscard]] virtual std::uint64_t seed() const = 0;
};

// Runs the traced phases of `workload` for about `budget_s` of host time
// and adds every per-layer metric to `out`. The phases interleave one
// repetition each of: one thread to the horizon (the layer counts and
// run-phase times), one thread in fixed run_for slices untraced and traced
// (trace.overhead compares only those two), and the library-default thread
// count (sim.shard_speedup). Every repetition must reproduce the same
// fingerprint. Single-layer probes (ISS, CAN wire length, path_rta) follow.
void add_layer_metrics(const NetWorkload& workload, double budget_s,
                       const Host& host, Tracer& tracer, Outcome& out);

// Runs `workload` for the untraced (end-to-end) or traced (per-layer)
// mode of `opt`.
[[nodiscard]] Outcome run_network_workload(const NetWorkload& workload,
                                           const Options& opt,
                                           const Host& host);

// The standalone ISS probe of every traced run: host ns per guest
// instruction of Core::run on the iss_fleet guest kernel (defined with the
// iss_fleet workload).
[[nodiscard]] double iss_host_ns_per_insn(std::uint64_t seed,
                                          double budget_s, Tracer* tracer,
                                          Checks& checks);

}  // namespace perfbench

#endif  // PERFBENCH_NETBENCH_H

// Shared helpers for the experiment harnesses.
//
// Each bench binary regenerates one table/figure of the paper (see
// "Reproducing the paper" in README.md) and prints paper-style rows.
// Numbers are simulated cycles from the ACES models — the shapes, not
// ARM's absolute silicon numbers, are the reproduction target. Benches
// with a `--json PATH` artifact write it through support::JsonWriter,
// starting with begin_artifact's shared header.
#ifndef ACES_BENCH_BENCH_UTIL_H
#define ACES_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/runner.h"
#include "cpu/profiles.h"
#include "cpu/system.h"
#include "isa/assembler.h"
#include "kir/lower.h"
#include "net/network.h"
#include "support/json.h"
#include "support/worker_pool.h"
#include "workloads/autoindy.h"
#include "workloads/runner.h"

namespace aces::bench {

// Memory regimes for the encoding comparisons.
enum class MemRegime {
  zero_wait,   // ideal 32-bit memory (Table 1's benchmarking condition)
  slow_flash,  // embedded flash behind a fast core (§2.2's condition)
};

inline cpu::SystemBuilder system_for(isa::Encoding e, MemRegime regime) {
  return cpu::profiles::for_encoding(e)
      .flash_size(128 * 1024)
      .flash_wait(regime == MemRegime::zero_wait ? 1 : 5);
}

struct KernelScore {
  std::string name;
  std::uint64_t cycles = 0;     // total over the instance batch
  std::uint32_t code_bytes = 0;
};

// Runs every suite kernel on one encoding/regime; deterministic seeds.
inline std::vector<KernelScore> run_suite(isa::Encoding e, MemRegime regime,
                                          int instances = 20,
                                          const kir::LoweringOptions* opts =
                                              nullptr) {
  std::vector<KernelScore> out;
  for (const workloads::Kernel& k : workloads::autoindy_suite()) {
    const kir::KFunction f = k.build();
    const kir::LoweredProgram prog =
        opts != nullptr
            ? kir::lower_program({&f}, e, *opts, cpu::kFlashBase)
            : kir::lower_program({&f}, e, cpu::kFlashBase);
    cpu::System sys(system_for(e, regime));
    sys.load(prog.image);
    support::Rng256 rng(99);  // same instances for every encoding
    KernelScore score;
    score.name = k.name;
    score.code_bytes = prog.code_bytes;
    for (int it = 0; it < instances; ++it) {
      const workloads::Instance in = k.make_instance(rng, workloads::kDataBase);
      const workloads::RunResult r =
          workloads::run_instance(sys, prog.entry_of(k.name), in);
      ACES_CHECK_MSG(r.value == in.expected, "kernel result mismatch");
      score.cycles += r.cycles;
    }
    out.push_back(score);
  }
  return out;
}

// Geometric mean of per-kernel rates (1/cycles), normalized later.
inline double geomean_rate(const std::vector<KernelScore>& scores) {
  double acc = 0.0;
  for (const KernelScore& s : scores) {
    acc += std::log(1.0 / static_cast<double>(s.cycles));
  }
  return std::exp(acc / static_cast<double>(scores.size()));
}

inline std::uint32_t total_code(const std::vector<KernelScore>& scores) {
  std::uint32_t total = 0;
  for (const KernelScore& s : scores) {
    total += s.code_bytes;
  }
  return total;
}

inline void print_rule() {
  std::printf(
      "--------------------------------------------------------------\n");
}

// Wall-clock seconds since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// `--name value` options of a bench's command line.
struct Args {
  int argc;
  char** argv;

  // The value after `name`, or nullptr when the option is absent.
  [[nodiscard]] const char* get(const char* name) const {
    for (int k = 1; k + 1 < argc; ++k) {
      if (std::strcmp(argv[k], name) == 0) {
        return argv[k + 1];
      }
    }
    return nullptr;
  }
  [[nodiscard]] long long num(const char* name, long long fallback) const {
    const char* v = get(name);
    return v != nullptr ? std::atoll(v) : fallback;
  }
};

// The co-simulation benches' guest: sleeps in WFI; an RX ISR on IVC line
// kGuestRxLine counts serviced frames at kGuestCount and acknowledges the
// CAN controller.
constexpr unsigned kGuestRxLine = 1;
constexpr std::uint32_t kGuestCount = cpu::kSramBase + 0x100;

inline net::GuestProgram counting_guest() {
  using namespace aces::isa;
  using Ctl = can::CanController;
  Assembler a(Encoding::b32, cpu::kFlashBase);
  const Label entry = a.bound_label();
  const Label top = a.bound_label();
  Instruction wfi;
  wfi.op = Op::wfi;
  a.ins(wfi);
  a.b(top);
  a.pool();
  const Label isr = a.bound_label();
  a.load_literal(r0, cpu::kPeriphBase);
  a.load_literal(r3, kGuestCount);
  a.ins(ins_ldst_imm(Op::ldr, r2, r3, 0));
  a.ins(ins_rri(Op::add, r2, r2, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r2, r3, 0));
  a.ins(ins_mov_imm(r12, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kRxPop));
  a.ins(ins_ldst_imm(Op::str, r12, r0, Ctl::kIrqAck));
  a.ins(ins_ret());
  a.pool();
  net::GuestProgram prog;
  prog.image = a.assemble();
  prog.entry = a.label_address(entry);
  prog.ivc.vector_table = cpu::kSramBase + 0x40;
  prog.handlers.push_back({kGuestRxLine, a.label_address(isr), 32});
  return prog;
}

// A gateway-bridged vehicle: buses pt (500 kbit/s), body (125 kbit/s) and
// diag (250 kbit/s), two ISS ECUs running `guest` on each (8 and 16 MHz),
// and a central gateway routing 0x100 from pt to both other buses.
struct GatewayVehicle {
  net::NetworkBuilder builder;
  net::BusId pt = 0;
  std::vector<net::EcuId> ecus;
  net::GatewayId gateway = 0;
};

inline GatewayVehicle gateway_vehicle(const net::GuestProgram& guest) {
  GatewayVehicle v;
  net::NetworkBuilder& nb = v.builder;
  const net::BusId buses[3] = {nb.bus("pt", 500'000), nb.bus("body", 125'000),
                               nb.bus("diag", 250'000)};
  v.pt = buses[0];
  can::CanController::Config cc;
  cc.rx_line = kGuestRxLine;
  for (int k = 0; k < 6; ++k) {
    v.ecus.push_back(nb.ecu(buses[k / 2],
                            cpu::profiles::modern_mcu()
                                .name("ecu" + std::to_string(k))
                                .clock_hz(8'000'000 * (1u << (k % 2)))
                                .flash_size(16 * 1024),
                            guest, cc));
  }
  net::GatewayConfig gc;
  gc.forwarding_latency = 100 * sim::kMicrosecond;
  v.gateway = nb.gateway("central", gc);
  nb.route(v.gateway, {buses[0], buses[1], 0x100, 0x7FF, {}});
  nb.route(v.gateway, {buses[0], buses[2], 0x100, 0x7FF, {}});
  return v;
}

// A sensor node on `bus` broadcasting 0x100 every millisecond.
inline void start_broadcast(net::Network& net, net::BusId bus) {
  const can::NodeId sensor = net.bus(bus).attach_node("sensor");
  net.shard(bus).schedule_every(sim::kMillisecond, [&net, bus, sensor] {
    can::CanFrame f;
    f.id = 0x100;
    f.dlc = 4;
    net.bus(bus).send(sensor, f);
  });
}

// Opens a bench artifact: one object, a member per line, led by the bench
// name, the host's hardware thread count, the CMake build type the bench
// was compiled in and the host name — a number is only comparable with
// one from the same build on the same machine.
inline void begin_artifact(support::JsonWriter& w, const char* bench) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0 || host[0] == '\0') {
    std::snprintf(host, sizeof host, "unknown");
  }
  w.begin_object(2);
  w.field("bench", bench);
  w.field("hw_threads", support::resolve_threads(0));
  w.field("build_type", ACES_BUILD_TYPE);
  w.field("host", host);
}

// A campaign variant's value on sweep axis `name` (0 when not swept).
inline double axis_of(const campaign::VariantResult& v, const char* name) {
  for (const auto& [axis, value] : v.params) {
    if (axis == name) {
      return value;
    }
  }
  return 0.0;
}

// Re-runs variant `v` of `spec` alone from its (index, seed) pair; it must
// reproduce the campaign's fingerprint.
inline void check_replay(const campaign::ScenarioSpec& spec,
                         const campaign::VariantResult& v) {
  const campaign::VariantResult again =
      campaign::CampaignRunner().replay(spec, v.index, v.seed);
  ACES_CHECK_MSG(again.fingerprint == v.fingerprint,
                 "replayed variant fingerprint differs from the campaign");
  std::printf("replay: variant %u (seed %llu) reproduced fingerprint %016llx\n",
              v.index, static_cast<unsigned long long>(v.seed),
              static_cast<unsigned long long>(v.fingerprint));
}

// The campaign benches' opening. Grows `spec` by replicates to at least
// `want` variants, prints the banner and opens the artifact. Then runs the
// worker-scaling sweep on at most four replicates of the grid, at 1, 2 and
// one-per-hardware-thread workers under `cfg`: the deterministic report
// must be byte-identical at every count, and the timings become the
// artifact's "scaling" array.
inline void open_campaign_bench(const char* bench, const char* title,
                                campaign::ScenarioSpec& spec, std::size_t want,
                                campaign::CampaignRunner::Config cfg,
                                support::JsonWriter& w) {
  const unsigned hw = support::resolve_threads(0);
  const std::size_t grid = spec.variant_count();  // replicates == 1 here
  spec.replicates = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, (want + grid - 1) / grid));
  std::printf("=== %s — %zu variants (%zu-point grid x %u replicates), "
              "horizon %lld ms, hw threads %u ===\n",
              title, spec.variant_count(), grid, spec.replicates,
              static_cast<long long>(spec.horizon / sim::kMillisecond), hw);
  begin_artifact(w, bench);

  campaign::ScenarioSpec subset = spec;
  subset.replicates = std::max(1u, std::min(spec.replicates, 4u));
  std::string reference;
  w.key("scaling").begin_array(4);
  for (const unsigned workers : {1u, 2u, hw}) {
    cfg.workers = workers;
    const campaign::CampaignResult r =
        campaign::CampaignRunner(cfg).run(subset);
    const std::string deterministic = r.to_json(/*with_timing=*/false);
    if (reference.empty()) {
      reference = deterministic;
    } else {
      ACES_CHECK_MSG(deterministic == reference,
                     "deterministic report differs across worker counts");
    }
    std::printf("scaling: workers %2u -> %6.2f s (%.1f variants/s)\n",
                workers, r.wall_seconds, r.variants_per_second);
    w.begin_object().field("workers", r.workers);
    w.field("wall_seconds", r.wall_seconds);
    w.field("variants_per_second", r.variants_per_second).end();
    if (workers >= hw) {
      break;
    }
  }
  w.end();
  std::printf("scaling subset deterministic report: byte-identical across "
              "worker counts (%zu variants)\n", subset.variant_count());
}

}  // namespace aces::bench

#endif  // ACES_BENCH_BENCH_UTIL_H

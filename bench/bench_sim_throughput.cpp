// Host-side microbenchmarks (google-benchmark): throughput of the
// simulation substrate itself — instruction-set simulator MIPS,
// event-queue operations/second and multi-ECU co-simulation events/second.
// Not a paper experiment; it documents that the models are fast enough for
// the sweeps the other benches run, and records the perf trajectory of the
// co-sim scheduler.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "can/controller.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

using namespace aces;
using namespace aces::bench;

namespace {

// crc16 from the AutoIndy suite on `builder`'s system (the encoding must
// match the builder's).
void IssThroughput(benchmark::State& state, cpu::SystemBuilder builder,
                   isa::Encoding enc = isa::Encoding::b32) {
  const workloads::Kernel& kernel = workloads::autoindy_suite()[4];  // crc16
  const kir::KFunction f = kernel.build();
  const kir::LoweredProgram prog =
      kir::lower_program({&f}, enc, cpu::kFlashBase);
  cpu::System sys(builder);
  sys.load(prog.image);
  support::Rng256 rng(1);
  const workloads::Instance in = kernel.make_instance(rng, workloads::kDataBase);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const workloads::RunResult r =
        workloads::run_instance(sys, prog.entry_of(kernel.name), in);
    benchmark::DoNotOptimize(r.value);
    instructions += r.instructions;
  }
  state.counters["sim_insns/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
  // Guest MIPS: the headline simulation-speed number (identical quantity,
  // scaled for reading against the paper's MHz-class cores).
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) * 1e-6, benchmark::Counter::kIsRate);
  // Speed-tier health counters: how much of the run the tiers actually
  // carried (a formation or invalidation bug shows up here long before it
  // shows up as a throughput regression).
  const cpu::Core::JitStats js = sys.core().jit_stats();
  state.counters["decode_hits"] = static_cast<double>(js.decode_hits);
  state.counters["blocks_formed"] = static_cast<double>(js.blocks_formed);
  state.counters["block_hits"] = static_cast<double>(js.block_hits);
  state.counters["block_instructions"] =
      static_cast<double>(js.block_instructions);
  state.counters["avg_block_length"] = js.avg_block_length;
  if (instructions > 0) {
    state.counters["block_insn_share"] =
        static_cast<double>(js.block_instructions) /
        static_cast<double>(instructions);
  }
}

cpu::SystemBuilder iss_system(MemRegime regime, cpu::DispatchTier tier) {
  return system_for(isa::Encoding::b32, regime).dispatch_tier(tier);
}

// The three-tier ladder CI tracks (BENCH_core.json): superblock is the
// default shipping configuration, the per-insn decode-cache tier is the
// previous PR's configuration, and Uncached doubles as the pre-decode-cache
// baseline. The perf smoke gate asserts Superblock >= 2x the per-insn tier
// on zero-wait memory and on slow flash.
void BM_IssInstructionThroughputSuperblock(benchmark::State& state) {
  IssThroughput(
      state, iss_system(MemRegime::zero_wait, cpu::DispatchTier::superblock));
}
BENCHMARK(BM_IssInstructionThroughputSuperblock);

void BM_IssInstructionThroughput(benchmark::State& state) {
  IssThroughput(state,
                iss_system(MemRegime::zero_wait, cpu::DispatchTier::per_insn));
}
BENCHMARK(BM_IssInstructionThroughput);

// The pre-decode-cache configuration, kept as a self-measuring baseline so
// the speedup is visible in every BENCH_core.json artifact.
void BM_IssInstructionThroughputUncached(benchmark::State& state) {
  IssThroughput(state,
                iss_system(MemRegime::zero_wait, cpu::DispatchTier::off));
}
BENCHMARK(BM_IssInstructionThroughputUncached);

// §2.2's regime, the default flash every modeled MCU runs from: 5 wait
// states behind the prefetch streamer, which superblocks charge inline.
void BM_IssInstructionThroughputSuperblockSlowFlash(benchmark::State& state) {
  IssThroughput(
      state, iss_system(MemRegime::slow_flash, cpu::DispatchTier::superblock));
}
BENCHMARK(BM_IssInstructionThroughputSuperblockSlowFlash);

void BM_IssInstructionThroughputSlowFlash(benchmark::State& state) {
  IssThroughput(state,
                iss_system(MemRegime::slow_flash, cpu::DispatchTier::per_insn));
}
BENCHMARK(BM_IssInstructionThroughputSlowFlash);

// An I-cache fronted core, where no superblock can form: the superblock
// tier must fall back without costing more than per_insn.
void BM_IssInstructionThroughputSuperblockCachedHp(benchmark::State& state) {
  IssThroughput(state,
                cpu::profiles::cached_hp(isa::Encoding::w32)
                    .dispatch_tier(cpu::DispatchTier::superblock),
                isa::Encoding::w32);
}
BENCHMARK(BM_IssInstructionThroughputSuperblockCachedHp);

void BM_IssInstructionThroughputCachedHp(benchmark::State& state) {
  IssThroughput(state,
                cpu::profiles::cached_hp(isa::Encoding::w32)
                    .dispatch_tier(cpu::DispatchTier::per_insn),
                isa::Encoding::w32);
}
BENCHMARK(BM_IssInstructionThroughputCachedHp);

void BM_EventQueueThroughput(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int k = 0; k < 1000; ++k) {
      q.schedule_at(k * 10, [&fired] { ++fired; });
    }
    q.run_until(1'000'000);
    benchmark::DoNotOptimize(fired);
    events += 1000;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventQueueThroughput);

// Multi-ECU co-simulation: four guest ECUs (WFI main loop, RX-interrupt
// ISR on the ISS) on one CAN bus, woken by a 1 kHz broadcast. The counter
// is scheduler work per wall second — queue events plus core steps — the
// number that has to stay high for many-ECU scenarios to be sweepable.
void BM_CoSimMultiEcu(benchmark::State& state) {
  const net::GuestProgram guest = counting_guest();
  can::CanController::Config cc;
  cc.rx_line = kGuestRxLine;
  std::uint64_t cosim_events = 0;
  std::uint64_t frames = 0;
  std::uint64_t slices = 0;
  std::uint64_t idle_windows = 0;
  for (auto _ : state) {
    net::NetworkBuilder nb;
    const net::BusId bus = nb.bus("can", 500'000);
    std::vector<net::EcuId> ecus;
    for (int k = 0; k < 4; ++k) {
      ecus.push_back(nb.ecu(bus,
                            cpu::profiles::modern_mcu()
                                .name("ecu" + std::to_string(k))
                                .clock_hz(8'000'000 * (1u << (k % 2)))
                                .flash_size(16 * 1024),
                            guest, cc));
    }
    net::Network net = nb.build();
    start_broadcast(net, bus);
    net.run_until(100 * sim::kMillisecond);

    const sim::Simulation::Stats& stats = net.simulation().stats();
    std::uint64_t events = stats.events_executed;
    for (const net::EcuId id : ecus) {
      events += net.iss(id).binding().stats().steps;
      frames += net.iss(id).system()->bus().read(kGuestCount, 4,
                                                 mem::Access::read, 0).value;
    }
    // Per-participant scheduler accounting (Simulation::Stats): total
    // round-robin slices and WFI fast-forwarded windows across the fleet —
    // the idle share is what keeps many-ECU scenarios sweepable.
    for (const sim::Simulation::ParticipantStats& ps : stats.participants) {
      slices += ps.slices;
      idle_windows += ps.idle_windows;
    }
    benchmark::DoNotOptimize(events);
    cosim_events += events;
  }
  state.counters["cosim_events/s"] = benchmark::Counter(
      static_cast<double>(cosim_events), benchmark::Counter::kIsRate);
  state.counters["frames_serviced"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kAvgIterations);
  state.counters["participant_slices"] = benchmark::Counter(
      static_cast<double>(slices), benchmark::Counter::kAvgIterations);
  state.counters["participant_idle_windows"] = benchmark::Counter(
      static_cast<double>(idle_windows), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CoSimMultiEcu);

// Multi-bus scaling: a NetworkBuilder vehicle — three buses at different
// bit rates, six ISS ECUs sleeping in WFI between compiled RX ISRs, and a
// central gateway fanning a 1 kHz powertrain broadcast out to both other
// segments. The counters (events/s and guest MIPS) are the BENCH_net.json
// figures CI tracks: scheduler throughput and simulated-core throughput of
// a whole routed vehicle, not a single hot loop.
void BM_CoSimGatewayNetwork(benchmark::State& state) {
  const net::GuestProgram guest = counting_guest();
  std::uint64_t cosim_events = 0;
  std::uint64_t instructions = 0;
  std::uint64_t forwarded = 0;
  for (auto _ : state) {
    GatewayVehicle v = gateway_vehicle(guest);
    // Arg: worker threads for the sharded epoch fan-out (the topology
    // partitions into one shard per bus). Results are thread-invariant;
    // only the wall clock moves.
    v.builder.threads(static_cast<unsigned>(state.range(0)));
    net::Network net = v.builder.build();
    start_broadcast(net, v.pt);
    net.run_until(100 * sim::kMillisecond);

    std::uint64_t events = net.simulation().stats().events_executed;
    for (const net::EcuId id : v.ecus) {
      events += net.iss(id).binding().stats().steps;
      instructions += net.iss(id).binding().stats().steps;
    }
    forwarded += net.gateway(v.gateway).stats().frames_delivered;
    benchmark::DoNotOptimize(events);
    cosim_events += events;
  }
  state.counters["cosim_events/s"] = benchmark::Counter(
      static_cast<double>(cosim_events), benchmark::Counter::kIsRate);
  // Simulated guest instructions per wall second across the whole fleet.
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) * 1e-6, benchmark::Counter::kIsRate);
  state.counters["frames_forwarded"] = benchmark::Counter(
      static_cast<double>(forwarded), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CoSimGatewayNetwork)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LoweringThroughput(benchmark::State& state) {
  const kir::KFunction f = workloads::build_crc16();
  for (auto _ : state) {
    const kir::LoweredProgram prog =
        kir::lower_program({&f}, isa::Encoding::b32, 0);
    benchmark::DoNotOptimize(prog.code_bytes);
  }
}
BENCHMARK(BM_LoweringThroughput);

}  // namespace

BENCHMARK_MAIN();

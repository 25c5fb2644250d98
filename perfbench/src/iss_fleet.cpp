// The `iss_fleet` workload: a spine bus and four zone buses, each zone
// behind its own gateway, with two busy ISS ECUs per zone on the default
// modern_mcu flash (wait states plus the prefetch streamer). Each ECU's
// main loop calls an AutoIndy kernel lowered by kir::lower_program and
// checks every result against the host reference, while a CAN RX ISR
// services a 5 ms command the spine controller sends and every zone gateway
// routes; each serviced command is answered with a status frame routed
// back to the spine.
//
// The seed draws every kernel's input instance and the phasing of the
// zones' background publishers.
#include "workloads.h"

#include <memory>
#include <string>

#include "cpu/profiles.h"
#include "guest.h"
#include "kir/lower.h"
#include "support/rng.h"
#include "workloads/autoindy.h"
#include "workloads/runner.h"

namespace perfbench {

namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

constexpr int kZones = 4;
constexpr int kIssPerZone = 2;
constexpr net::BusId kSpine = 0;
constexpr std::uint32_t kCommandId = 0x010;  // top priority on every bus
constexpr SimTime kCommandPeriod = 5 * kMillisecond;
constexpr SimTime kGwLatency = 200 * kMicrosecond;
// A whole number of command periods: the last command is serviced well
// before the horizon, so ISR counts equal the commands delivered.
constexpr SimTime kHorizon = 20 * kCommandPeriod;
constexpr std::uint32_t kClockHz = 8'000'000;

// Guest SRAM words: ISR command count, then the kernel loop's last result,
// mismatch count and completed iterations.
constexpr std::uint32_t kCount = cpu::kSramBase + 0x100;
constexpr std::uint32_t kResult = cpu::kSramBase + 0x180;

// Kernels whose instance memory is read-only, so a guest can call them in
// a loop and expect the same result every time.
const char* const kKernels[] = {"crc16", "fir16", "map_interp", "can_pack"};

[[nodiscard]] std::uint32_t status_id(int z, int e) {
  return static_cast<std::uint32_t>(0x100 + 0x10 * z + e);
}
[[nodiscard]] std::uint32_t background_id(int z, int k) {
  return static_cast<std::uint32_t>(0x300 + 0x10 * z + k);
}

[[nodiscard]] const workloads::Kernel& kernel_named(const std::string& name) {
  for (const workloads::Kernel& k : workloads::autoindy_suite()) {
    if (k.name == name) {
      return k;
    }
  }
  ACES_CHECK_MSG(false, "unknown AutoIndy kernel " + name);
  return workloads::autoindy_suite().front();
}

[[nodiscard]] cpu::SystemBuilder ecu_system(const std::string& name) {
  return cpu::profiles::modern_mcu().name(name).clock_hz(kClockHz)
      .flash_size(32 * 1024);
}

// One ECU's guest: the lowered kernel at the flash base, then the main
// loop, a call veneer and the RX ISR.
net::GuestProgram kernel_guest(const workloads::Kernel& kernel,
                               const workloads::Instance& instance,
                               std::uint32_t reply_id, Tracer* tracer) {
  using namespace isa;
  const kir::KFunction f = kernel.build();
  kir::LoweredProgram lowered;
  {
    Tracer::Scope span(tracer, "kir.lower");
    lowered = kir::lower_program({&f}, Encoding::b32, cpu::kFlashBase);
  }

  Tracer::Scope span(tracer, "isa.assemble");
  const std::uint32_t base = (lowered.image.end() + 15u) & ~15u;
  Assembler a(Encoding::b32, base);
  const Label veneer = a.new_label();
  const Label entry = a.bound_label();
  const Label loop = a.bound_label();
  for (int k = 0; k < instance.nargs; ++k) {
    a.load_literal(static_cast<Reg>(k),
                   instance.args[static_cast<std::size_t>(k)]);
  }
  a.bl(veneer);
  a.load_literal(r3, kResult);
  a.ins(ins_ldst_imm(Op::str, r0, r3, 0));
  a.load_literal(r1, instance.expected);
  a.ins(ins_cmp_reg(r0, r1));
  const Label ok = a.new_label();
  a.b(ok, Cond::eq);
  a.ins(ins_ldst_imm(Op::ldr, r2, r3, 4));
  a.ins(ins_rri(Op::add, r2, r2, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r2, r3, 4));
  a.bind(ok);
  a.ins(ins_ldst_imm(Op::ldr, r2, r3, 8));
  a.ins(ins_rri(Op::add, r2, r2, 1, SetFlags::any));
  a.ins(ins_ldst_imm(Op::str, r2, r3, 8));
  a.b(loop);
  a.pool();
  // The kernel lives in another image: reach it through a register.
  a.bind(veneer);
  a.load_literal(r12, lowered.entry_of(kernel.name));
  Instruction bx;
  bx.op = Op::bx;
  bx.rm = r12;
  a.ins(bx);
  a.pool();
  const Label isr =
      guest::relay_isr(a, kCommandId, reply_id, 0, kCount);
  const Image main = a.assemble();

  Image image = lowered.image;
  image.bytes.resize(base - image.base, 0);
  image.bytes.insert(image.bytes.end(), main.bytes.begin(), main.bytes.end());
  net::GuestProgram p;
  p.image = std::move(image);
  p.entry = a.label_address(entry);
  p.handlers.push_back({guest::kRxLine, a.label_address(isr), 32});
  return p;
}

// The instance of ECU `index`, drawn from the seed.
workloads::Instance instance_for(std::uint64_t seed, int index,
                                 const workloads::Kernel& kernel) {
  support::Rng256 rng(seed * 0x9E37'79B9'7F4A'7C15ull +
                      static_cast<std::uint64_t>(index) + 1);
  return kernel.make_instance(rng, workloads::kDataBase);
}

class IssFleet final : public NetWorkload {
 public:
  explicit IssFleet(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "iss_fleet"; }
  [[nodiscard]] std::uint64_t seed() const override { return seed_; }
  [[nodiscard]] SimTime slice() const override { return kMillisecond; }
  [[nodiscard]] std::uint64_t default_fingerprint() const override {
    return 0x9a0b'bad4'57b2'b346ull;
  }

  [[nodiscard]] NetScenario describe(Tracer* tracer) const override {
    NetScenario s;
    s.horizon = kHorizon;
    net::NetworkBuilder& nb = s.builder;
    support::Rng256 phase(seed_);
    nb.bus("spine", 500'000);
    net::ModelTask command;
    command.name = "command";
    command.priority = 5;
    command.exec = 100 * kMicrosecond;
    command.period = kCommandPeriod;
    can::CanFrame cmd;
    cmd.id = kCommandId;
    cmd.dlc = 8;
    command.tx = cmd;
    nb.ecu(kSpine, "controller", {command});

    net::GatewayConfig gc;
    gc.forwarding_latency = kGwLatency;
    gc.queue_depth = 16;
    can::CanController::Config cc;
    cc.rx_line = guest::kRxLine;
    for (int z = 0; z < kZones; ++z) {
      const net::BusId zone = nb.bus("zone" + std::to_string(z), 500'000);
      const net::GatewayId gw = nb.gateway("gw" + std::to_string(z), gc);
      nb.route(gw, {kSpine, zone, kCommandId, 0x7FF, {}});
      for (int e = 0; e < kIssPerZone; ++e) {
        const int index = z * kIssPerZone + e;
        const workloads::Kernel& kernel =
            kernel_named(kKernels[index % std::size(kKernels)]);
        nb.ecu(zone,
               ecu_system("z" + std::to_string(z) + "iss" +
                          std::to_string(e)),
               kernel_guest(kernel, instance_for(seed_, index, kernel),
                            status_id(z, e), tracer),
               cc);
        nb.route(gw, {zone, kSpine, status_id(z, e), 0x7FF, {}});
      }
      for (int k = 0; k < 2; ++k) {
        net::ModelTask t;
        t.name = "bg";
        t.priority = 4;
        t.exec = 200 * kMicrosecond;
        t.period = (k + 1) * 10 * kMillisecond;
        t.offset = static_cast<SimTime>(phase.next_below(
                       static_cast<std::uint64_t>(t.period / (100 * kMicrosecond)))) *
                   100 * kMicrosecond;
        can::CanFrame f;
        f.id = background_id(z, k);
        f.dlc = 8;
        t.tx = f;
        nb.ecu(zone, "z" + std::to_string(z) + "bg" + std::to_string(k),
               {t});
      }
      s.paths.push_back({"command_zone" + std::to_string(z), zone,
                         kCommandId});
    }
    return s;
  }

  void prepare(net::Network& net) const override {
    for (std::size_t k = 0; k < net.ecu_count(); ++k) {
      cpu::System* sys = net.ecu(static_cast<net::EcuId>(k)).system();
      if (sys == nullptr) {
        continue;
      }
      const int index = iss_index(static_cast<int>(k));
      const workloads::Kernel& kernel =
          kernel_named(kKernels[index % std::size(kKernels)]);
      const workloads::Instance in = instance_for(seed_, index, kernel);
      if (!in.memory.empty()) {
        ACES_CHECK(sys->bus().load_image(
            workloads::kDataBase, in.memory.data(),
            static_cast<std::uint32_t>(in.memory.size())));
      }
    }
  }

  // The command is the top-priority frame on the spine and on every zone,
  // so its bound on each hop is its own frame time plus blocking by the
  // longest lower-priority frame.
  [[nodiscard]] std::vector<sched::PathRtaResult> bounds() const override {
    using sched::CanMessage;
    std::vector<CanMessage> spine = {
        {"command", kCommandId, 8, kCommandPeriod, 0, 0}};
    for (int z = 0; z < kZones; ++z) {
      for (int e = 0; e < kIssPerZone; ++e) {
        spine.push_back({"status", status_id(z, e), 4, kCommandPeriod, 0,
                         kCommandPeriod});
      }
    }
    std::vector<sched::PathRtaResult> out;
    for (int z = 0; z < kZones; ++z) {
      std::vector<CanMessage> zone = {
          {"command", kCommandId, 8, kCommandPeriod, 0, 0}};
      for (int e = 0; e < kIssPerZone; ++e) {
        zone.push_back({"status", status_id(z, e), 4, kCommandPeriod, 0,
                        kCommandPeriod});
      }
      for (int k = 0; k < 2; ++k) {
        zone.push_back({"bg", background_id(z, k), 8,
                        (k + 1) * 10 * kMillisecond, 0, 0});
      }
      out.push_back(sched::path_rta(
          {sched::make_hop(spine, kCommandId, 500'000),
           sched::make_hop(zone, kCommandId, 500'000, kGwLatency)}));
    }
    return out;
  }

  void check(net::Network& net, const std::vector<BusProbe>& probes,
             Checks& checks, Fnv1a& fingerprint) const override {
    for (std::size_t k = 0; k < net.ecu_count(); ++k) {
      net::EcuNode& ecu = net.ecu(static_cast<net::EcuId>(k));
      if (ecu.system() == nullptr) {
        continue;
      }
      auto& iss = static_cast<net::IssEcuNode&>(ecu);
      const int index = iss_index(static_cast<int>(k));
      const workloads::Kernel& kernel =
          kernel_named(kKernels[index % std::size(kKernels)]);
      const workloads::Instance in = instance_for(seed_, index, kernel);
      const std::string who = "iss_fleet: " + std::string(ecu.name()) + " (" +
                              kernel.name + ")";
      const std::uint32_t result = iss.read_word(kResult);
      const std::uint32_t mismatches = iss.read_word(kResult + 4);
      const std::uint32_t iterations = iss.read_word(kResult + 8);
      const std::uint32_t serviced = iss.read_word(kCount);
      checks.expect(iterations > 0, who + " completed kernel calls");
      checks.expect(mismatches == 0 && result == in.expected,
                    who + " kernel results equal Instance::expected");
      const BusProbe::Tracked* delivered =
          probes[static_cast<std::size_t>(ecu.bus())].find(kCommandId);
      checks.expect(delivered != nullptr && delivered->heard == serviced,
                    who + " ISR count equals the commands delivered");
      fingerprint.add(iterations);
      fingerprint.add(serviced);
    }
  }

 private:
  // ISS ECUs are declared zone by zone, after the spine controller and
  // before each zone's two background ECUs.
  [[nodiscard]] static int iss_index(int ecu) {
    const int per_zone = kIssPerZone + 2;
    const int z = (ecu - 1) / per_zone;
    return z * kIssPerZone + (ecu - 1) % per_zone;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<NetWorkload> make_iss_fleet(std::uint64_t seed) {
  return std::make_unique<IssFleet>(seed);
}

double iss_host_ns_per_insn(std::uint64_t seed, double budget_s,
                            Tracer* tracer, Checks& checks) {
  // Core::run on the first fleet ECU's guest kernel, in a standalone
  // System from the same SystemBuilder the fleet uses.
  const workloads::Kernel& kernel = kernel_named(kKernels[0]);
  const workloads::Instance in = instance_for(seed, 0, kernel);
  const kir::KFunction f = kernel.build();
  const kir::LoweredProgram prog =
      kir::lower_program({&f}, isa::Encoding::b32, cpu::kFlashBase);
  cpu::System sys(ecu_system("probe"));
  sys.load(prog.image);
  const std::uint32_t entry = prog.entry_of(kernel.name);
  Tracer::Scope span(tracer, "cpu.core_run_probe", Tracer::Kind::probe);
  std::uint64_t insns = 0;
  bool correct = true;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  do {
    const workloads::RunResult r = workloads::run_instance(sys, entry, in);
    insns += r.instructions;
    correct = correct && r.value == in.expected;
    t1 = Clock::now();
  } while (seconds_between(t0, t1) < budget_s);
  checks.expect(correct, "cpu probe: standalone kernel results equal "
                         "Instance::expected");
  return 1e9 * seconds_between(t0, t1) / static_cast<double>(insns);
}

}  // namespace perfbench

// The `vehicle` workload: the 24-ECU, 3-bus mixed-fidelity vehicle of
// examples/vehicle_network.cpp, rebuilt here — powertrain 500k / body 125k
// / diagnostics 250k behind one central store-and-forward gateway, three
// WFI-idle ISS ECUs answering CAN RX interrupts, 21 kernel-model ECUs and
// four routed paths bounded by sched::path_rta.
//
// The seed sets the first-activation offset of every periodic publisher
// (the phasing of the vehicle's traffic), which moves every frame instant
// but none of the analytic bounds: the path_rta bounds hold for any phasing.
#include "workloads.h"

#include <memory>

#include "cpu/profiles.h"
#include "guest.h"
#include "support/rng.h"

namespace perfbench {

namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::SimTime;

constexpr net::BusId kPt = 0;
constexpr net::BusId kBody = 1;
constexpr net::BusId kDiag = 2;

constexpr std::uint32_t kWheelId = 0x050;
constexpr std::uint32_t kDiagReqPtId = 0x0F0;
constexpr std::uint32_t kEngStatusId = 0x110;
constexpr std::uint32_t kLockCmdId = 0x0E0;
constexpr std::uint32_t kDoorStatusId = 0x1A0;
constexpr std::uint32_t kSeatPosId = 0x200;
constexpr std::uint32_t kEngStatusDiagId = 0x610;
constexpr std::uint32_t kDoorStatusDiagId = 0x660;
constexpr std::uint32_t kDiagReqId = 0x700;

constexpr std::uint32_t kCount = cpu::kSramBase + 0x100;
constexpr SimTime kGwLatency = 200 * kMicrosecond;
constexpr SimTime kHorizon = 5 * sim::kSecond;

net::GuestProgram relay_program(std::uint32_t match_id,
                                std::uint32_t reply_id,
                                std::uint32_t reply_mask) {
  isa::Assembler a(isa::Encoding::b32, cpu::kFlashBase);
  const isa::Label entry = guest::idle_loop(a);
  const isa::Label isr =
      guest::relay_isr(a, match_id, reply_id, reply_mask, kCount);
  net::GuestProgram p;
  p.image = a.assemble();
  p.entry = a.label_address(entry);
  p.handlers.push_back({guest::kRxLine, a.label_address(isr), 32});
  return p;
}

class Vehicle final : public NetWorkload {
 public:
  explicit Vehicle(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::string name() const override { return "vehicle"; }
  [[nodiscard]] std::uint64_t seed() const override { return seed_; }
  [[nodiscard]] SimTime slice() const override { return 10 * kMillisecond; }
  [[nodiscard]] std::uint64_t default_fingerprint() const override {
    return 0xda2b'733f'7394'a9d2ull;
  }

  [[nodiscard]] NetScenario describe(Tracer* tracer) const override {
    support::Rng256 rng(seed_);
    // A periodic single-task publisher whose first activation falls at a
    // seeded offset within its period (0.1 ms grid).
    const auto publisher = [&rng](const char* task, int prio, SimTime exec,
                                  SimTime period, std::uint32_t id,
                                  unsigned dlc) {
      net::ModelTask t;
      t.name = task;
      t.priority = prio;
      t.exec = exec;
      t.period = period;
      t.offset = static_cast<SimTime>(rng.next_below(
                     static_cast<std::uint64_t>(period / (100 * kMicrosecond)))) *
                 100 * kMicrosecond;
      can::CanFrame f;
      f.id = id;
      f.dlc = dlc;
      t.tx = f;
      return t;
    };
    const auto consumer = [](const char* task, int prio, SimTime exec,
                             std::uint32_t rx_id) {
      net::ModelTask t;
      t.name = task;
      t.priority = prio;
      t.exec = exec;
      t.activate_on_rx = rx_id;
      return t;
    };

    NetScenario s;
    s.horizon = kHorizon;
    net::NetworkBuilder& nb = s.builder;
    nb.bus("powertrain", 500'000);
    nb.bus("body", 125'000);
    nb.bus("diag", 250'000);
    can::CanController::Config cc;
    cc.rx_line = guest::kRxLine;

    net::GuestProgram engine;
    net::GuestProgram door;
    net::GuestProgram seat;
    {
      Tracer::Scope span(tracer, "isa.assemble");
      engine = relay_program(kDiagReqPtId, kEngStatusId, 0);
      door = relay_program(kLockCmdId, kDoorStatusId, 0);
      seat = relay_program(kDoorStatusId, kSeatPosId, 1);
    }

    nb.ecu(kPt,
           cpu::profiles::modern_mcu().name("engine").clock_hz(16'000'000)
               .flash_size(32 * 1024),
           engine, cc);
    nb.ecu(kPt, "abs", {publisher("wheel_acq", 8, kMillisecond,
                                  5 * kMillisecond, kWheelId, 8)});
    nb.ecu(kPt, "trans", {publisher("shift_ctl", 7, 2 * kMillisecond,
                                    10 * kMillisecond, 0x060, 8)});
    nb.ecu(kPt, "esc", {publisher("stability", 7, kMillisecond,
                                  10 * kMillisecond, 0x070, 6)});
    nb.ecu(kPt, "inj", {publisher("injection", 6, 2 * kMillisecond,
                                  10 * kMillisecond, 0x130, 4)});
    nb.ecu(kPt, "turbo", {publisher("boost", 5, 2 * kMillisecond,
                                    20 * kMillisecond, 0x150, 4)});
    nb.ecu(kPt, "egr", {publisher("egr_ctl", 5, 2 * kMillisecond,
                                  20 * kMillisecond, 0x170, 2)});
    nb.ecu(kPt, "oil", {publisher("oil_mon", 4, 5 * kMillisecond,
                                  50 * kMillisecond, 0x190, 2)});

    nb.ecu(kBody,
           cpu::profiles::modern_mcu().name("door").clock_hz(8'000'000)
               .flash_size(32 * 1024),
           door, cc);
    nb.ecu(kBody,
           cpu::profiles::modern_mcu().name("seat").clock_hz(8'000'000)
               .flash_size(32 * 1024),
           seat, cc);
    nb.ecu(kBody, "bcm", {publisher("lock_ctl", 8, kMillisecond,
                                    20 * kMillisecond, kLockCmdId, 2)});
    nb.ecu(kBody, "lights", {publisher("light_ctl", 6, kMillisecond,
                                       20 * kMillisecond, 0x210, 4)});
    nb.ecu(kBody, "wipers", {publisher("wipe_ctl", 5, 2 * kMillisecond,
                                       50 * kMillisecond, 0x220, 2)});
    nb.ecu(kBody, "hvac", {publisher("hvac_ctl", 5, 4 * kMillisecond,
                                     100 * kMillisecond, 0x230, 6)});
    nb.ecu(kBody, "windows", {publisher("win_ctl", 4, 2 * kMillisecond,
                                        50 * kMillisecond, 0x240, 2)});
    nb.ecu(kBody, "mirrors", {publisher("mirror", 3, 2 * kMillisecond,
                                        100 * kMillisecond, 0x250, 2)});
    nb.ecu(kBody, "park", {publisher("park_aid", 3, 2 * kMillisecond,
                                     100 * kMillisecond, 0x260, 2)});
    nb.ecu(kBody, "cluster",
           {consumer("speed_disp", 6, 500 * kMicrosecond, kWheelId)});

    nb.ecu(kDiag, "tester", {publisher("poll_ecu", 7, 2 * kMillisecond,
                                       50 * kMillisecond, kDiagReqId, 2)});
    nb.ecu(kDiag, "logger",
           {consumer("log_status", 6, kMillisecond, kEngStatusDiagId)});
    nb.ecu(kDiag, "obd", {publisher("obd_bcast", 5, 2 * kMillisecond,
                                    100 * kMillisecond, 0x620, 8)});
    nb.ecu(kDiag, "dtc", {publisher("dtc_scan", 4, 5 * kMillisecond,
                                    200 * kMillisecond, 0x630, 4)});
    nb.ecu(kDiag, "gwmon", {publisher("gw_mon", 3, 5 * kMillisecond,
                                      100 * kMillisecond, 0x640, 2)});
    nb.ecu(kDiag, "fwsvc", {publisher("fw_svc", 2, 10 * kMillisecond,
                                      500 * kMillisecond, 0x650, 8)});

    net::GatewayConfig gc;
    gc.forwarding_latency = kGwLatency;
    gc.queue_depth = 8;
    const net::GatewayId gw = nb.gateway("central", gc);
    nb.route(gw, {kDiag, kPt, kDiagReqId, 0x7FF, kDiagReqPtId});
    nb.route(gw, {kPt, kDiag, kEngStatusId, 0x7FF, kEngStatusDiagId});
    nb.route(gw, {kPt, kBody, kWheelId, 0x7FF, {}});
    nb.route(gw, {kBody, kDiag, kDoorStatusId, 0x7FF, kDoorStatusDiagId});

    s.paths = {{"diag_req", kPt, kDiagReqPtId},
               {"wheel", kBody, kWheelId},
               {"eng_status", kDiag, kEngStatusDiagId},
               {"door_status", kDiag, kDoorStatusDiagId}};
    return s;
  }

  // The example's analysis: per-bus message sets, routed interferers
  // inheriting their upstream bound as release jitter in dependency order.
  [[nodiscard]] std::vector<sched::PathRtaResult> bounds() const override {
    using sched::CanMessage;
    const auto pt_set = [](SimTime j_req) -> std::vector<CanMessage> {
      return {
          {"wheel", kWheelId, 8, 5 * kMillisecond, 0, 0},
          {"trans", 0x060, 8, 10 * kMillisecond, 0, 0},
          {"esc", 0x070, 6, 10 * kMillisecond, 0, 0},
          {"diag_req", kDiagReqPtId, 2, 50 * kMillisecond, 0, j_req},
          {"eng_status", kEngStatusId, 4, 50 * kMillisecond, 0, 0},
          {"inj", 0x130, 4, 10 * kMillisecond, 0, 0},
          {"turbo", 0x150, 4, 20 * kMillisecond, 0, 0},
          {"egr", 0x170, 2, 20 * kMillisecond, 0, 0},
          {"oil", 0x190, 2, 50 * kMillisecond, 0, 0},
      };
    };
    const auto body_set = [](SimTime j_wheel) -> std::vector<CanMessage> {
      return {
          {"wheel", kWheelId, 8, 5 * kMillisecond, 0, j_wheel},
          {"lock_cmd", kLockCmdId, 2, 20 * kMillisecond, 0, 0},
          {"door_stat", kDoorStatusId, 4, 20 * kMillisecond, 0, 0},
          {"seat_pos", kSeatPosId, 4, 40 * kMillisecond, 0, 0},
          {"lights", 0x210, 4, 20 * kMillisecond, 0, 0},
          {"wipers", 0x220, 2, 50 * kMillisecond, 0, 0},
          {"hvac", 0x230, 6, 100 * kMillisecond, 0, 0},
          {"windows", 0x240, 2, 50 * kMillisecond, 0, 0},
          {"mirrors", 0x250, 2, 100 * kMillisecond, 0, 0},
          {"park", 0x260, 2, 100 * kMillisecond, 0, 0},
      };
    };
    const auto diag_set = [](SimTime j_status) -> std::vector<CanMessage> {
      return {
          {"eng_status", kEngStatusDiagId, 4, 50 * kMillisecond, 0, j_status},
          {"obd", 0x620, 8, 100 * kMillisecond, 0, 0},
          {"dtc", 0x630, 4, 200 * kMillisecond, 0, 0},
          {"gw_mon", 0x640, 2, 100 * kMillisecond, 0, 0},
          {"door_stat", kDoorStatusDiagId, 4, 20 * kMillisecond, 0, 0},
          {"fw_svc", 0x650, 8, 500 * kMillisecond, 0, 0},
          {"diag_req", kDiagReqId, 2, 50 * kMillisecond, 0, 0},
      };
    };
    using sched::make_hop;
    const sched::PathRtaResult req =
        sched::path_rta({make_hop(diag_set(0), kDiagReqId, 250'000),
                         make_hop(pt_set(0), kDiagReqPtId, 500'000,
                                  kGwLatency)});
    const sched::PathRtaResult wheel =
        sched::path_rta({make_hop(pt_set(0), kWheelId, 500'000),
                         make_hop(body_set(0), kWheelId, 125'000,
                                  kGwLatency)});
    const sched::PathRtaResult status = sched::path_rta(
        {make_hop(pt_set(req.hop_response[0]), kEngStatusId, 500'000),
         make_hop(diag_set(0), kEngStatusDiagId, 250'000, kGwLatency)});
    const sched::PathRtaResult door = sched::path_rta(
        {make_hop(body_set(wheel.hop_response[0]), kDoorStatusId, 125'000),
         make_hop(diag_set(status.response), kDoorStatusDiagId, 250'000,
                  kGwLatency)});
    return {req, wheel, status, door};
  }

  void check(net::Network& net, const std::vector<BusProbe>& /*probes*/,
             Checks& checks, Fnv1a& fingerprint) const override {
    std::uint64_t misses = 0;
    for (std::size_t k = 0; k < net.ecu_count(); ++k) {
      net::EcuNode& ecu = net.ecu(static_cast<net::EcuId>(k));
      if (rtos::Kernel* kernel = ecu.kernel()) {
        for (int t = 0; t < kernel->task_count(); ++t) {
          misses += kernel->stats(t).deadline_misses;
        }
      } else {
        const std::uint32_t served =
            static_cast<net::IssEcuNode&>(ecu).read_word(kCount);
        checks.expect(served > 0, "vehicle: ISS ECU " +
                                      std::string(ecu.name()) +
                                      " serviced RX interrupts");
        fingerprint.add(served);
      }
    }
    checks.expect(misses == 0, "vehicle: no deadline misses");
  }

 private:
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<NetWorkload> make_vehicle(std::uint64_t seed) {
  return std::make_unique<Vehicle>(seed);
}

}  // namespace perfbench

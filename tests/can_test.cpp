// CAN frame serialization and bus arbitration tests.
//
// The wire-length functions are checked against a test-local reference
// serializer: the frame built as an explicit bit sequence, its CRC-15
// computed over that sequence, then stuffed in a separate walk — the
// literal reading of the CAN 2.0 / CAN FD bit layout, independent of the
// library's streaming stuffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "can/bus.h"
#include "can/frame.h"
#include "support/rng.h"

namespace aces::can {
namespace {

using sim::SimTime;

CanFrame frame(std::uint32_t id, unsigned dlc, std::uint8_t fill = 0) {
  CanFrame f;
  f.id = id;
  f.dlc = dlc;
  f.data.fill(fill);
  return f;
}

// ----- reference serializer --------------------------------------------------

// Appends the low `n` bits of `v`, most significant first.
void push_bits(std::vector<bool>& bits, std::uint32_t v, int n) {
  for (int k = n - 1; k >= 0; --k) {
    bits.push_back(((v >> k) & 1u) != 0);
  }
}

// CRC-15 over the given bit sequence (poly 0x4599, initial 0).
std::uint16_t ref_crc15(const std::vector<bool>& bits) {
  std::uint16_t crc = 0;
  for (const bool bit : bits) {
    const bool msb = ((crc >> 14) & 1u) != 0;
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    if (msb != bit) {
      crc ^= 0x4599;
    }
  }
  return crc;
}

// SOF through the end of the arbitration field: the standard format's
// 11-bit identifier, or the extended format's base identifier, SRR, IDE
// and 18-bit extension; then the RTR (classic) or RRS (FD) bit.
void push_arbitration(std::vector<bool>& bits, const CanFrame& f, bool rtr) {
  bits.push_back(false);  // SOF (dominant)
  if (!f.extended) {
    push_bits(bits, f.id, 11);
  } else {
    push_bits(bits, f.id >> 18, 11);  // base identifier
    bits.push_back(true);             // SRR (recessive)
    bits.push_back(true);             // IDE (extended)
    push_bits(bits, f.id & 0x3FFFFu, 18);
  }
  bits.push_back(rtr);
}

// Classic header + data + CRC-15 (the stuffable region), unstuffed.
std::vector<bool> ref_stuffable_bits(const CanFrame& f) {
  std::vector<bool> bits;
  push_arbitration(bits, f, f.rtr);
  if (!f.extended) {
    bits.push_back(false);  // IDE (standard)
    bits.push_back(false);  // r0
  } else {
    bits.push_back(false);  // r1
    bits.push_back(false);  // r0
  }
  push_bits(bits, f.dlc, 4);
  if (!f.rtr) {  // remote frames carry no data field
    for (unsigned b = 0; b < f.dlc; ++b) {
      push_bits(bits, f.data[b], 8);
    }
  }
  push_bits(bits, ref_crc15(bits), 15);
  return bits;
}

// Stuff bits the dynamic stuffing rule inserts into `bits`, split into
// those sent before raw bit `split` and the rest.
struct StuffCount {
  unsigned before = 0;
  unsigned after = 0;
};
StuffCount ref_stuff(const std::vector<bool>& bits, std::size_t split) {
  StuffCount c;
  unsigned run = 0;
  bool last = false;
  bool have_last = false;
  for (std::size_t k = 0; k < bits.size(); ++k) {
    const bool b = bits[k];
    if (have_last && b == last) {
      ++run;
    } else {
      run = 1;
      last = b;
      have_last = true;
    }
    if (run == 5) {
      // A stuff bit of opposite polarity goes out between raw bits k and
      // k+1; it starts a new run that the following raw bit may extend.
      ++(k + 1 < split ? c.before : c.after);
      last = !b;
      run = 1;
    }
  }
  return c;
}

unsigned ref_exact_wire_bits(const CanFrame& f) {
  const std::vector<bool> bits = ref_stuffable_bits(f);
  const StuffCount c = ref_stuff(bits, bits.size());
  return static_cast<unsigned>(bits.size()) + c.before + c.after + 13;
}

FdWireBits ref_fd_exact_wire_bits(const CanFrame& f) {
  std::vector<bool> bits;
  push_arbitration(bits, f, false);  // RRS (dominant)
  if (!f.extended) {
    bits.push_back(false);  // IDE (standard)
  }
  bits.push_back(true);   // FDF (recessive marks the FD format)
  bits.push_back(false);  // res
  bits.push_back(f.brs);  // BRS: last nominal-rate bit
  const std::size_t head = bits.size();
  bits.push_back(false);  // ESI (error active)
  push_bits(bits, f.dlc, 4);
  const unsigned n = fd_payload_bytes(f.dlc);
  for (unsigned b = 0; b < n; ++b) {
    push_bits(bits, f.data[b], 8);
  }
  // A stuff bit triggered by BRS itself is sent after the rate switch.
  const StuffCount c = ref_stuff(bits, head);
  FdWireBits w;
  w.nominal_bits = static_cast<unsigned>(head) + c.before + 13;
  w.data_bits = static_cast<unsigned>(bits.size() - head) + c.after +
                (n <= 16 ? 27u : 32u);  // fixed-stuffed CRC field
  return w;
}

std::string describe(const CanFrame& f) {
  std::string s = "id=" + std::to_string(f.id) +
                  " dlc=" + std::to_string(f.dlc) +
                  " ext=" + std::to_string(f.extended) +
                  " rtr=" + std::to_string(f.rtr) +
                  " fd=" + std::to_string(f.fd) +
                  " brs=" + std::to_string(f.brs) + " data=";
  for (unsigned b = 0; b < payload_bytes(f); ++b) {
    s += std::to_string(f.data[b]) + ",";
  }
  return s;
}

// ----- frame serialization ----------------------------------------------------

TEST(Frame, StuffableBitCount) {
  // SOF + 11 id + RTR/IDE/r0 + 4 DLC + data + 15 CRC = 34 + 8*dlc.
  for (unsigned dlc = 0; dlc <= 8; ++dlc) {
    EXPECT_EQ(ref_stuffable_bits(frame(0x123, dlc)).size(), 34u + 8 * dlc);
  }
}

TEST(Frame, Crc15KnownProperty) {
  // CRC of an all-zero sequence is zero; flipping any bit changes it.
  const std::vector<bool> zeros(34, false);
  EXPECT_EQ(ref_crc15(zeros), 0);
  std::vector<bool> one = zeros;
  one[5] = true;
  EXPECT_NE(ref_crc15(one), 0);
}

TEST(Frame, Crc15CheckValue) {
  // The catalogued CRC-15/CAN check value: ASCII "123456789", each byte
  // most significant bit first.
  std::vector<bool> bits;
  for (const char c : std::string("123456789")) {
    push_bits(bits, static_cast<std::uint8_t>(c), 8);
  }
  EXPECT_EQ(ref_crc15(bits), 0x059E);
}

TEST(Frame, ExactWireBitsMatchReferenceOnEveryFormat) {
  // Differential property, 4000 seeded frames per format: every DLC code,
  // all-zero / all-one / random payloads (the stuffing extremes and the
  // typical case), and identifiers at both range ends as well as random.
  enum Format { standard, extended, remote, fd_brs, fd_no_brs, kFormats };
  support::Rng256 rng(20261019);
  for (int format = 0; format < kFormats; ++format) {
    const bool fd = format == fd_brs || format == fd_no_brs;
    const unsigned codes = fd ? 16 : 9;
    for (unsigned round = 0; round < 4000; ++round) {
      CanFrame f;
      f.fd = fd;
      f.brs = format == fd_brs;
      f.rtr = format == remote;
      f.extended = format == extended ||
                   (format != standard && rng.chance(0.5));
      f.dlc = round % codes;
      const std::uint32_t id_end = 1u << (f.extended ? 29 : 11);
      switch (round % 5) {
        case 0: f.id = 0; break;
        case 1: f.id = id_end - 1; break;
        default:
          f.id = static_cast<std::uint32_t>(rng.next_below(id_end));
      }
      switch ((round / codes) % 3) {
        case 0: f.data.fill(0x00); break;
        case 1: f.data.fill(0xFF); break;
        default:
          for (auto& b : f.data) {
            b = static_cast<std::uint8_t>(rng.next_below(256));
          }
      }
      if (!fd) {
        ASSERT_EQ(exact_wire_bits(f), ref_exact_wire_bits(f)) << describe(f);
        continue;
      }
      const FdWireBits got = fd_exact_wire_bits(f);
      const FdWireBits want = ref_fd_exact_wire_bits(f);
      ASSERT_EQ(got.nominal_bits, want.nominal_bits) << describe(f);
      ASSERT_EQ(got.data_bits, want.data_bits) << describe(f);
    }
  }
}

TEST(Frame, FdPhaseSplitWorkedExample) {
  // Standard id 0x000, DLC 0, BRS set. Head: SOF + 11 id + RRS + IDE are
  // 14 dominant raw bits (stuffs after the 5th and the 9th), then FDF,
  // res, BRS: 17 raw + 2 stuff + 13 tail = 32 nominal bits. Data: ESI and
  // the 4 dominant DLC bits follow recessive BRS, so the 5th is stuffed:
  // 5 raw + 1 stuff + 27 CRC field = 33 data bits.
  CanFrame f = frame(0x000, 0);
  f.fd = true;
  const FdWireBits w = fd_exact_wire_bits(f);
  EXPECT_EQ(w.nominal_bits, 32u);
  EXPECT_EQ(w.data_bits, 33u);
}

TEST(Frame, SerializersRejectMalformedFrames) {
  CanFrame f = frame(0x800, 1);  // 12 bits: out of the standard range
  EXPECT_THROW((void)exact_wire_bits(f), std::logic_error);
  f.extended = true;  // fits 29 bits
  EXPECT_EQ(exact_wire_bits(f), ref_exact_wire_bits(f));
  f.id = 1u << 29;
  EXPECT_THROW((void)exact_wire_bits(f), std::logic_error);
  EXPECT_THROW((void)exact_wire_bits(frame(0x10, 9)), std::logic_error);

  CanFrame fd = frame(0x10, 15);
  fd.fd = true;
  EXPECT_THROW((void)exact_wire_bits(fd), std::logic_error);
  EXPECT_NO_THROW((void)fd_exact_wire_bits(fd));
  EXPECT_THROW((void)fd_exact_wire_bits(frame(0x10, 8)), std::logic_error);
  fd.dlc = 16;
  EXPECT_THROW((void)fd_exact_wire_bits(fd), std::logic_error);
  fd.dlc = 8;
  fd.rtr = true;
  EXPECT_THROW((void)fd_exact_wire_bits(fd), std::logic_error);
  fd.rtr = false;
  fd.id = 0x800;
  EXPECT_THROW((void)fd_exact_wire_bits(fd), std::logic_error);
}

TEST(Frame, WorstCaseBoundsExactLength) {
  support::Rng256 rng(31);
  for (int k = 0; k < 500; ++k) {
    CanFrame f;
    f.id = static_cast<std::uint32_t>(rng.next_below(1u << 11));
    f.dlc = static_cast<unsigned>(rng.next_below(9));
    for (auto& b : f.data) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const unsigned exact = exact_wire_bits(f);
    const unsigned worst = worst_case_wire_bits(f.dlc);
    EXPECT_LE(exact, worst) << "id=" << f.id << " dlc=" << f.dlc;
    // And the frame always needs at least the unstuffed length.
    EXPECT_GE(exact, 34u + 8 * f.dlc + 13u);
  }
}

TEST(Frame, WorstCaseMatchesPublishedClosedForms) {
  // Tindell/Davis stuffed-length bounds, pinned for every dlc and both
  // identifier formats: standard 8n + 47 + floor((34 + 8n - 1) / 4),
  // extended 8n + 67 + floor((54 + 8n - 1) / 4).
  for (unsigned n = 0; n <= 8; ++n) {
    EXPECT_EQ(worst_case_wire_bits(n), 8 * n + 47 + (34 + 8 * n - 1) / 4);
    EXPECT_EQ(worst_case_wire_bits(n, false), worst_case_wire_bits(n));
    EXPECT_EQ(worst_case_wire_bits(n, true),
              8 * n + 67 + (54 + 8 * n - 1) / 4);
  }
  // Spot values: 135 bits for a full standard frame, 160 for extended.
  EXPECT_EQ(worst_case_wire_bits(8), 135u);
  EXPECT_EQ(worst_case_wire_bits(0), 55u);
  EXPECT_EQ(worst_case_wire_bits(8, true), 160u);
}

TEST(Frame, ExtendedAndRemoteStuffableRegionLengths) {
  for (unsigned dlc = 0; dlc <= 8; ++dlc) {
    CanFrame e;
    e.extended = true;
    e.id = 0x1ABC'DE01;
    e.dlc = dlc;
    EXPECT_EQ(ref_stuffable_bits(e).size(), 54u + 8 * dlc);
    // Remote frames keep the DLC field but carry no data bytes.
    CanFrame r = frame(0x123, dlc);
    r.rtr = true;
    EXPECT_EQ(ref_stuffable_bits(r).size(), 34u);
    e.rtr = true;
    EXPECT_EQ(ref_stuffable_bits(e).size(), 54u);
  }
}

TEST(Frame, WorstCaseBoundsExactLengthAllFormats) {
  support::Rng256 rng(47);
  for (int k = 0; k < 500; ++k) {
    CanFrame f;
    f.extended = rng.chance(0.5);
    f.rtr = rng.chance(0.25);
    f.id = static_cast<std::uint32_t>(
        rng.next_below(1u << (f.extended ? 29 : 11)));
    f.dlc = static_cast<unsigned>(rng.next_below(9));
    for (auto& b : f.data) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const unsigned exact = exact_wire_bits(f);
    const unsigned worst = worst_case_wire_bits(f.dlc, f.extended);
    EXPECT_LE(exact, worst) << "id=" << f.id << " dlc=" << f.dlc
                            << " ext=" << f.extended << " rtr=" << f.rtr;
    // And at least the unstuffed length.
    const unsigned g =
        (f.extended ? 54u : 34u) + (f.rtr ? 0 : 8 * f.dlc);
    EXPECT_GE(exact, g + 13u);
  }
}

TEST(Frame, ArbitrationKeyMatchesWireDominance) {
  CanFrame s = frame(0x100, 4);
  CanFrame s_hi = frame(0x101, 4);
  EXPECT_LT(arbitration_key(s), arbitration_key(s_hi));
  // A standard frame beats the extended frame sharing its base id (the
  // standard RTR/IDE bits are dominant where extended sends SRR/IDE
  // recessive) ...
  CanFrame e;
  e.extended = true;
  e.id = (0x100u << 18) | 0x1234u;
  EXPECT_LT(arbitration_key(s), arbitration_key(e));
  // ... but an extended frame with a lower base id beats both.
  CanFrame e_lo = e;
  e_lo.id = (0x0FFu << 18) | 0x3FFFFu;
  EXPECT_LT(arbitration_key(e_lo), arbitration_key(s));
  // A data frame beats the same-identifier remote frame.
  CanFrame r = s;
  r.rtr = true;
  EXPECT_LT(arbitration_key(s), arbitration_key(r));
}

TEST(Frame, AllZeroPayloadMaximizesStuffing) {
  // Long runs of identical bits force a stuff bit every 4 data bits.
  const unsigned zero_bits = exact_wire_bits(frame(0, 8, 0x00));
  const unsigned alt_bits = exact_wire_bits(frame(0x555, 8, 0xAA));
  EXPECT_EQ(zero_bits, 127u);
  EXPECT_EQ(alt_bits, 112u);
}

struct BusFixture {
  sim::EventQueue q;
  CanBus bus{q, 500'000};  // 500 kbit/s -> 2 us/bit
  NodeId a = bus.attach_node("a");
  NodeId b = bus.attach_node("b");
};

TEST(Bus, DeliversToOtherNodes) {
  BusFixture f;
  int received = 0;
  f.bus.subscribe(f.b, [&](const CanFrame& fr, SimTime) {
    EXPECT_EQ(fr.id, 0x100u);
    ++received;
  });
  int self_received = 0;
  f.bus.subscribe(f.a, [&](const CanFrame&, SimTime) { ++self_received; });
  f.bus.send(f.a, frame(0x100, 4));
  f.q.run_until(sim::kSecond);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(self_received, 0);  // transmitter does not hear itself
}

TEST(Bus, SendRejectsOutOfRangeIdentifier) {
  // Regression: send() checked the DLC but not the identifier, so a
  // 12-bit standard id queued behind a busy wire was accepted and the
  // check fired later, from inside the event loop at its arbitration.
  BusFixture f;
  std::vector<std::uint32_t> heard;
  f.bus.subscribe(f.b, [&](const CanFrame& fr, SimTime) {
    heard.push_back(fr.id);
  });
  f.bus.send(f.a, frame(0x100, 8));  // takes the wire
  EXPECT_THROW(f.bus.send(f.a, frame(0x800, 1)), std::logic_error);
  CanFrame e = frame(1u << 29, 1);
  e.extended = true;
  EXPECT_THROW(f.bus.send(f.a, e), std::logic_error);
  EXPECT_NO_THROW(f.q.run_until(sim::kSecond));
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0], 0x100u);
}

TEST(Bus, LowestIdWinsArbitration) {
  BusFixture f;
  std::vector<std::uint32_t> order;
  f.bus.subscribe(f.b, [&](const CanFrame& fr, SimTime) {
    order.push_back(fr.id);
  });
  // Fill the bus, then enqueue contenders while busy.
  f.bus.send(f.a, frame(0x200, 8));
  f.q.schedule_at(10'000, [&] {
    f.bus.send(f.a, frame(0x300, 2));
    f.bus.send(f.a, frame(0x050, 2));  // should win despite arriving last
  });
  f.q.run_until(sim::kSecond);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0x200u);
  EXPECT_EQ(order[1], 0x050u);
  EXPECT_EQ(order[2], 0x300u);
}

TEST(Bus, CrossNodeArbitration) {
  BusFixture f;
  const NodeId c = f.bus.attach_node("c");
  std::vector<std::uint32_t> order;
  f.bus.subscribe(c, [&](const CanFrame& fr, SimTime) {
    order.push_back(fr.id);
  });
  f.bus.send(f.a, frame(0x400, 1));
  // While busy: both nodes queue; b's lower id goes first.
  f.q.schedule_at(5'000, [&] {
    f.bus.send(f.a, frame(0x120, 1));
    f.bus.send(f.b, frame(0x110, 1));
  });
  f.q.run_until(sim::kSecond);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 0x110u);
  EXPECT_EQ(order[2], 0x120u);
}

TEST(Bus, TransmissionIsNonPreemptive) {
  BusFixture f;
  std::vector<std::pair<std::uint32_t, SimTime>> deliveries;
  f.bus.subscribe(f.b, [&](const CanFrame& fr, SimTime at) {
    deliveries.push_back({fr.id, at});
  });
  f.bus.send(f.a, frame(0x700, 8));  // low priority, long
  f.q.schedule_at(1'000, [&] { f.bus.send(f.a, frame(0x001, 0)); });
  f.q.run_until(sim::kSecond);
  ASSERT_EQ(deliveries.size(), 2u);
  // The low-priority frame completes first (started already).
  EXPECT_EQ(deliveries[0].first, 0x700u);
  const SimTime long_frame_time = f.bus.frame_time(frame(0x700, 8));
  EXPECT_EQ(deliveries[0].second, long_frame_time);
}

TEST(Bus, LatencyStatsTracked) {
  BusFixture f;
  f.bus.send(f.a, frame(0x100, 8));
  f.bus.send(f.a, frame(0x100, 8));  // second one waits for the first
  f.q.run_until(sim::kSecond);
  const auto& s = f.bus.stats().at(0x100);
  EXPECT_EQ(s.sent, 2u);
  EXPECT_GT(s.worst_latency, s.avg_latency() * 1.2);
}

TEST(Bus, FrameTimeMatchesBitCount) {
  BusFixture f;
  const CanFrame fr = frame(0x25, 3, 0x5A);
  EXPECT_EQ(f.bus.frame_time(fr),
            static_cast<SimTime>(exact_wire_bits(fr)) * 2'000);
}

TEST(Bus, UtilizationAccounting) {
  BusFixture f;
  for (int k = 0; k < 10; ++k) {
    f.bus.send(f.a, frame(0x100, 8));
  }
  f.q.run_until(10 * sim::kMillisecond);
  const double u = f.bus.utilization(10 * sim::kMillisecond);
  EXPECT_GT(u, 0.1);
  EXPECT_LE(u, 1.0);
}

TEST(Bus, UtilizationIsProRatedMidFrame) {
  // Regression: busy time used to accrue in full at transmission start,
  // so a query while a frame was on the wire counted unsent bits and a
  // saturated bus could report >100%.
  BusFixture f;
  const CanFrame fr = frame(0x100, 8);
  const SimTime ft = f.bus.frame_time(fr);
  for (int k = 0; k < 4; ++k) {  // keep the bus saturated throughout
    f.bus.send(f.a, fr);
  }
  bool queried = false;
  f.q.schedule_at(ft / 2, [&] {  // halfway through the first frame
    queried = true;
    EXPECT_NEAR(f.bus.utilization(ft / 2), 1.0, 1e-9);
  });
  f.q.schedule_at(2 * ft + ft / 4, [&] {  // a quarter into the third
    EXPECT_NEAR(f.bus.utilization(2 * ft + ft / 4), 1.0, 1e-9);
  });
  f.q.run_until(sim::kSecond);
  EXPECT_TRUE(queried);
  // Fully drained: busy time equals exactly the four completed frames.
  EXPECT_NEAR(f.bus.utilization(4 * ft), 1.0, 1e-9);
  EXPECT_NEAR(f.bus.utilization(8 * ft), 0.5, 1e-9);
}

TEST(Bus, DuplicateIdentifierAcrossNodesIsDiagnosed) {
  // Two nodes presenting the same identifier in one arbitration round is
  // a CAN protocol violation (and voids the RTA's unique-priority
  // assumption); the bus resolves it deterministically but diagnoses it.
  BusFixture f;
  const NodeId c = f.bus.attach_node("c");
  std::vector<std::uint32_t> order;
  f.bus.subscribe(c, [&](const CanFrame& fr, SimTime) {
    order.push_back(fr.id);
  });
  f.bus.send(f.a, frame(0x080, 1));
  f.q.schedule_at(1'000, [&] {  // while the bus is busy
    f.bus.send(f.a, frame(0x200, 1));
    f.bus.send(f.b, frame(0x200, 2));
  });
  f.q.run_until(sim::kSecond);
  EXPECT_EQ(f.bus.fault_stats().duplicate_id_conflicts, 1u);
  EXPECT_EQ(f.bus.fault_stats().last_duplicate_id, 0x200u);
  // Deterministic resolution: the lower node index wins the first round.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 0x200u);
  EXPECT_EQ(order[2], 0x200u);
  // Distinct formats sharing a number are NOT duplicates on the wire:
  // queue a standard and an extended 0x300 while the bus is busy, so both
  // meet in the same arbitration round.
  f.bus.send(f.a, frame(0x080, 1));
  f.q.schedule_at(f.q.now() + 1'000, [&] {
    CanFrame e;
    e.extended = true;
    e.id = 0x300;
    f.bus.send(f.a, frame(0x300, 1));
    f.bus.send(f.b, e);
  });
  f.q.run_until(f.q.now() + sim::kSecond);
  EXPECT_EQ(f.bus.fault_stats().duplicate_id_conflicts, 1u);
}

TEST(Bus, StandardFrameBeatsExtendedSharingItsBase) {
  BusFixture f;
  const NodeId c = f.bus.attach_node("c");
  std::vector<bool> ext_order;
  f.bus.subscribe(c, [&](const CanFrame& fr, SimTime) {
    ext_order.push_back(fr.extended);
  });
  f.bus.send(f.a, frame(0x700, 1));  // occupy the wire
  f.q.schedule_at(1'000, [&] {
    CanFrame e;
    e.extended = true;
    e.id = 0x120u << 18;  // base 0x120, extension 0
    e.dlc = 1;
    f.bus.send(f.a, e);
    f.bus.send(f.b, frame(0x120, 1));  // same base, standard: wins
  });
  f.q.run_until(sim::kSecond);
  ASSERT_EQ(ext_order.size(), 3u);
  EXPECT_FALSE(ext_order[1]);
  EXPECT_TRUE(ext_order[2]);
}

}  // namespace
}  // namespace aces::can

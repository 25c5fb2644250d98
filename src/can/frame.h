// CAN 2.0 + CAN FD frame model with exact bit-level serialization.
//
// The simulator prices every transmission with the frame's true on-wire
// length for both frame formats: SOF, the arbitration field (11-bit base
// identifier, extended frames add SRR/IDE and the 18-bit extension), the
// control field, data (absent for remote frames), the real CRC-15
// (poly 0x4599), then bit stuffing over the stuffable span — plus the fixed
// CRC delimiter / ACK / EOF / IFS tail. The worst-case length formula used
// by the response-time analysis (sched/can_rta.h) upper-bounds this exact
// length; tests assert that property over randomized frames.
//
// One streaming stuffer (frame.cpp) serializes both formats without
// building the bit sequence: it takes the raw bits in wire order and, per
// bit, updates the current run, the stuff-bit count and the CRC-15, so the
// CRC value is ready when the CRC field is due and goes through the same
// stuffer. Classic and FD frames share its writer for SOF plus the
// identifier fields.
//
// CAN FD frames split into two phases priced at different bit rates when
// BRS (bit-rate switch) is set:
//
//   nominal phase   SOF through BRS (arbitration + early control field),
//                   dynamically stuffed, plus the never-stuffed 13-bit tail
//                   (CRC delimiter, ACK slot+delimiter, EOF, IFS);
//   data phase      ESI + DLC + data bytes, dynamically stuffed
//                   (continuing the run that ends at BRS; a stuff bit the
//                   BRS bit triggers is already sent at the data rate),
//                   followed by the FIXED-stuffed CRC field: a stuff bit
//                   before the 4-bit stuff count and after every 4th CRC
//                   bit, CRC-17 for payloads <= 16 bytes (field = 4+17+6 =
//                   27 bits) and CRC-21 above (4+21+7 = 32 bits).
//
// Because the FD CRC field is fixed-stuffed its length is constant per
// payload size, so the exact FD wire length needs no CRC value — only the
// dynamic stuffing over the head and data bits.
#ifndef ACES_CAN_FRAME_H
#define ACES_CAN_FRAME_H

#include <array>
#include <cstdint>

#include "support/check.h"

namespace aces::can {

// Largest CAN FD payload (DLC code 15).
inline constexpr unsigned kFdMaxPayload = 64;

struct CanFrame {
  std::uint32_t id = 0;   // 11-bit standard or 29-bit extended identifier
  bool extended = false;  // IDE: 29-bit identifier (CAN 2.0B)
  bool rtr = false;       // remote frame: dlc kept, no data field on wire
  bool fd = false;        // FDF: CAN FD frame (no remote frames, DLC 0..15)
  bool brs = true;        // FD only (ignored for classic frames): switch to
                          // the data bit rate after the BRS bit — the usual
                          // FD configuration, and the default the analysis
                          // side (sched::CanMessage) assumes
  unsigned dlc = 8;       // classic: 0..8 data bytes; FD: DLC code 0..15
  std::array<std::uint8_t, kFdMaxPayload> data{};
  // Origin timestamp (sim::SimTime ns), metadata only — never serialized on
  // the wire. CanBus::send stamps it with the queue instant while it is
  // still unset (negative; 0 is a valid stamp for frames queued at t=0),
  // and store-and-forward nodes (net::GatewayNode) preserve it across
  // hops, so a receiver can measure true multi-bus end-to-end latency as
  // `delivery_time - frame.timestamp`.
  std::int64_t timestamp = -1;
};

// Throws unless `f` is well formed for its format: identifier within 11
// (standard) or 29 (extended) bits, classic DLC 0..8, FD DLC code 0..15
// and no FD remote frame. CanBus::send and both wire-length functions
// apply it.
void check_frame(const CanFrame& f);

// Exact on-wire bit count: stuffed stuffable region + fixed 13-bit tail
// (CRC delimiter, ACK slot+delimiter, 7-bit EOF, 3-bit interframe space).
// Classic frames only (rejects FD; see fd_exact_wire_bits).
[[nodiscard]] unsigned exact_wire_bits(const CanFrame& frame);

// Classic worst-case length bound (Tindell/Davis): the stuffable region of
// a data frame with `dlc` data bytes is g = 34 + 8*dlc bits for the
// standard format (SOF + 11 id + RTR/IDE/r0 + 4 DLC + 15 CRC) and
// g = 54 + 8*dlc for the extended format (SOF + 11 base id + SRR/IDE +
// 18 id extension + RTR/r1/r0 + 4 DLC + 15 CRC); it may gain
// floor((g-1)/4) stuff bits, and the 13-bit tail is never stuffed.
// Equivalently, standard: 8n + 47 + floor((34 + 8n - 1) / 4).
// `dlc` must be 0..8 — FD DLC codes must go through the FD formulas, never
// this one (a DLC code fed here would silently under-price the frame).
[[nodiscard]] constexpr unsigned worst_case_wire_bits(unsigned dlc,
                                                      bool extended = false) {
  ACES_CHECK_MSG(dlc <= 8, "classic dlc is 0..8 (FD DLC codes need the "
                           "fd_worst_case_* formulas)");
  const unsigned g = (extended ? 54u : 34u) + 8 * dlc;
  return g + (g - 1) / 4 + 13;
}

// CAN FD DLC code -> payload bytes: codes 0..8 map to themselves, codes
// 9..15 map to {12, 16, 20, 24, 32, 48, 64}.
[[nodiscard]] constexpr unsigned fd_payload_bytes(unsigned dlc) {
  ACES_CHECK_MSG(dlc <= 15, "FD DLC code is 0..15");
  if (dlc <= 8) {
    return dlc;
  }
  constexpr unsigned kMap[7] = {12, 16, 20, 24, 32, 48, 64};
  return kMap[dlc - 9];
}

// Payload bytes carried by a frame (0 for classic remote frames).
[[nodiscard]] constexpr unsigned payload_bytes(const CanFrame& f) {
  if (f.fd) {
    return fd_payload_bytes(f.dlc);
  }
  ACES_CHECK_MSG(f.dlc <= 8, "classic dlc is 0..8");
  return f.rtr ? 0u : f.dlc;
}

// Exact CAN FD wire length, split by phase. `nominal_bits` covers SOF
// through BRS (stuffed) plus the 13-bit tail, always at the arbitration
// bit rate; `data_bits` covers ESI+DLC+data (stuffed) plus the fixed-stuff
// CRC field, at the data bit rate when the frame sets BRS.
struct FdWireBits {
  unsigned nominal_bits = 0;
  unsigned data_bits = 0;
};
[[nodiscard]] FdWireBits fd_exact_wire_bits(const CanFrame& frame);

// Worst-case nominal-phase bits of a CAN FD frame. The dynamically stuffed
// head is SOF + 11 id + RRS + IDE + FDF + res + BRS = 17 bits (standard)
// or SOF + 11 base id + SRR + IDE + 18 extension + RRS + FDF + res + BRS
// = 36 bits (extended), gaining at most floor((h-1)/4) stuff bits, plus
// the 13-bit tail: standard 17+4+13 = 34, extended 36+8+13 = 57.
[[nodiscard]] constexpr unsigned fd_worst_case_nominal_bits(
    bool extended = false) {
  const unsigned h = extended ? 36u : 17u;
  return h + (h - 1) / 4 + 13;
}

// Worst-case data-phase bits of a CAN FD frame with DLC code `dlc`
// carrying n = fd_payload_bytes(dlc) bytes. The dynamic span ESI + 4 DLC +
// 8n data = 5+8n bits follows a run in progress at BRS, so it gains at
// most 1 + floor((5+8n-1)/4) = 2n+2 stuff bits; the CRC field is a fixed
// 27 bits (CRC-17, n <= 16) or 32 bits (CRC-21). Closed forms:
//   n <= 16:  (5+8n) + (2n+2) + 27 = 10n + 34
//   n >  16:  (5+8n) + (2n+2) + 32 = 10n + 39
[[nodiscard]] constexpr unsigned fd_worst_case_data_bits(unsigned dlc) {
  const unsigned n = fd_payload_bytes(dlc);
  return 10 * n + (n <= 16 ? 34u : 39u);
}

// Total arbitration ordering of frames on one bus: compares the wire bits
// a receiver would see through the arbitration phase (dominant 0 wins).
// Base identifier first; on a tie a standard frame beats an extended one
// (its RTR/IDE bits are dominant where the extended frame sends the
// recessive SRR/IDE), and a data frame beats the same-id remote frame.
// Key layout (smaller wins): [31:21] base id, [20] RTR/SRR, [19] IDE,
// [18:1] id extension, [0] extended RTR.
// FD-ness does not enter the key: an FD frame sends dominant RRS where a
// classic data frame sends dominant RTR, so a classic and an FD frame with
// the same identifier and format tie through arbitration — a protocol
// anomaly the bus reports via its duplicate-identifier diagnosis.
[[nodiscard]] constexpr std::uint32_t arbitration_key(const CanFrame& f) {
  if (!f.extended) {
    return ((f.id & 0x7FFu) << 21) | ((f.rtr ? 1u : 0u) << 20);
  }
  return (((f.id >> 18) & 0x7FFu) << 21) | (1u << 20) | (1u << 19) |
         ((f.id & 0x3FFFFu) << 1) | (f.rtr ? 1u : 0u);
}

}  // namespace aces::can

#endif  // ACES_CAN_FRAME_H

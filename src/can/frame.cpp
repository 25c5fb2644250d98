#include "can/frame.h"

#include "support/check.h"

namespace aces::can {

namespace {

// The one bit stuffer. Raw bits go in in wire order; each one extends or
// restarts the current run of equal bits, inserts a stuff bit of opposite
// polarity when the run reaches 5 (the stuff bit starts a new run the next
// raw bit may extend), and advances CRC-15 (poly 0x4599, initial 0). The
// updates are branch-free: a frame's cost depends only on its length.
class Stuffer {
 public:
  // The low `n` bits of `v`, most significant first.
  void bits(std::uint32_t v, unsigned n) {
    while (n > 0) {
      --n;
      bit(static_cast<unsigned>(v >> n) & 1u);
    }
  }

  [[nodiscard]] unsigned raw() const { return raw_; }
  [[nodiscard]] unsigned stuffs() const { return stuffs_; }
  [[nodiscard]] std::uint16_t crc() const { return crc_; }

 private:
  void bit(unsigned b) {
    ++raw_;
    run_ = run_ * static_cast<unsigned>(b == last_) + 1;
    const unsigned stuff = static_cast<unsigned>(run_ == 5);
    stuffs_ += stuff;
    last_ = b ^ stuff;
    run_ -= 4 * stuff;
    const unsigned feedback = ((crc_ >> 14) & 1u) ^ b;
    crc_ = static_cast<std::uint16_t>(((crc_ << 1) & 0x7FFFu) ^
                                      (0x4599u & (0u - feedback)));
  }

  unsigned raw_ = 0;
  unsigned stuffs_ = 0;
  unsigned run_ = 0;
  unsigned last_ = 2;  // matches no bit: the first bit starts a run of 1
  std::uint16_t crc_ = 0;
};

// SOF, the identifier fields and the RTR (classic) or RRS (FD) bit, plus
// the dominant IDE of the standard format: the prefix both frame formats
// share. An extended frame's IDE goes out before its identifier extension.
void write_identifier(Stuffer& s, const CanFrame& f, bool rtr) {
  s.bits(0, 1);  // SOF (dominant)
  if (!f.extended) {
    s.bits(f.id, 11);
    s.bits(rtr ? 1u : 0u, 1);
    s.bits(0, 1);  // IDE (standard)
  } else {
    s.bits(f.id >> 18, 11);       // base identifier
    s.bits(0b11, 2);              // SRR, IDE (both recessive)
    s.bits(f.id & 0x3FFFFu, 18);  // identifier extension
    s.bits(rtr ? 1u : 0u, 1);
  }
}

// The data bytes of the frame, most significant bit first.
void write_data(Stuffer& s, const CanFrame& f, unsigned bytes) {
  for (unsigned b = 0; b < bytes; ++b) {
    s.bits(f.data[b], 8);
  }
}

}  // namespace

void check_frame(const CanFrame& f) {
  ACES_CHECK_MSG(f.id < (1u << (f.extended ? 29 : 11)),
                 "identifier out of range for the frame format");
  if (f.fd) {
    ACES_CHECK_MSG(!f.rtr, "CAN FD has no remote frames");
    ACES_CHECK_MSG(f.dlc <= 15, "FD DLC code is 0..15");
  } else {
    // A 9..15 code fed through the classic wire formulas would silently
    // under-price the frame.
    ACES_CHECK_MSG(f.dlc <= 8, "classic dlc is 0..8");
  }
}

unsigned exact_wire_bits(const CanFrame& frame) {
  ACES_CHECK_MSG(!frame.fd,
                 "exact_wire_bits serializes classic frames only; FD frames "
                 "go through fd_exact_wire_bits");
  check_frame(frame);
  Stuffer s;
  write_identifier(s, frame, frame.rtr);
  s.bits(0, frame.extended ? 2 : 1);  // r1 (extended only), r0
  s.bits(frame.dlc, 4);
  write_data(s, frame, payload_bytes(frame));
  s.bits(s.crc(), 15);
  return s.raw() + s.stuffs() + 13;
}

FdWireBits fd_exact_wire_bits(const CanFrame& frame) {
  ACES_CHECK_MSG(frame.fd, "fd_exact_wire_bits needs an FD frame");
  check_frame(frame);
  Stuffer s;
  write_identifier(s, frame, false);  // RRS (dominant where RTR sits)
  s.bits(0b10, 2);                    // FDF (recessive), res
  // The rate switches at the BRS bit, so a stuff bit it triggers already
  // belongs to the data phase.
  const unsigned head_stuffs = s.stuffs();
  s.bits(frame.brs ? 1u : 0u, 1);  // BRS: last nominal-rate bit
  const unsigned head = s.raw();
  s.bits(0, 1);  // ESI (error active)
  s.bits(frame.dlc, 4);
  const unsigned n = fd_payload_bytes(frame.dlc);
  write_data(s, frame, n);

  // CRC field: 4-bit stuff count + CRC-17 (n <= 16) or CRC-21, with a
  // fixed stuff bit before the first bit and after every 4th — its length
  // is constant, so no CRC value is needed for the wire length.
  const unsigned crc_field = n <= 16 ? 27u : 32u;

  FdWireBits w;
  w.nominal_bits = head + head_stuffs + 13;
  w.data_bits = s.raw() - head + s.stuffs() - head_stuffs + crc_field;
  return w;
}

}  // namespace aces::can

// Randomized property tests.
//
// 1. KIR program fuzzing: random straight-line programs (arithmetic,
//    selects, bitfields, divides) are executed by a host-side reference
//    interpreter and by the simulator under all three encodings — results
//    must agree bit-for-bit. This sweeps lowering corner cases (two-address
//    fixups, immediate materialization, IT-block selects, spills) far
//    beyond the hand-written kernels.
// 2. Decode fuzzing: random bit patterns either fail to decode or decode to
//    an instruction that re-encodes to the identical bytes (decode/encode
//    fixed point), for every codec.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cpu/system.h"
#include "isa/codec.h"
#include "isa/disasm.h"
#include "kir/kir.h"
#include "kir/lower.h"
#include "support/bits.h"
#include "support/rng.h"

namespace aces {
namespace {

using isa::Cond;
using isa::Encoding;
using kir::KFunction;
using kir::KOp;
using kir::VReg;

// ----- 1. KIR fuzz -----------------------------------------------------------

// Host-side interpreter for the generated subset (no memory, no loops).
class KirInterpreter {
 public:
  explicit KirInterpreter(int vregs) : regs_(static_cast<std::size_t>(vregs), 0) {}

  void set(VReg v, std::uint32_t value) {
    regs_[static_cast<std::size_t>(v)] = value;
  }

  std::uint32_t run(const KFunction& f) {
    for (const kir::KInsn& i : f.body()) {
      step(i);
      if (returned_) {
        return result_;
      }
    }
    ADD_FAILURE() << "interpreter fell off the end";
    return 0;
  }

 private:
  [[nodiscard]] std::uint32_t get(VReg v) const {
    return regs_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] std::uint32_t operand(const kir::KInsn& i) const {
    if (i.b_is_imm) {
      return static_cast<std::uint32_t>(i.imm);
    }
    // One-operand instructions leave b at its -1 sentinel; their (unused)
    // operand must not be read out of regs_.
    return i.b >= 0 ? get(i.b) : 0;
  }
  [[nodiscard]] static bool compare(Cond c, std::uint32_t a,
                                    std::uint32_t b) {
    isa::Flags f;
    const std::uint64_t u = static_cast<std::uint64_t>(a) + (~b) + 1;
    const std::int64_t s =
        static_cast<std::int64_t>(static_cast<std::int32_t>(a)) -
        static_cast<std::int32_t>(b);
    const auto r = static_cast<std::uint32_t>(u);
    f.n = (r >> 31) != 0;
    f.z = r == 0;
    f.c = (u >> 32) != 0;
    f.v = s != static_cast<std::int32_t>(r);
    return isa::cond_holds(c, f);
  }

  void step(const kir::KInsn& i) {
    const std::uint32_t b = i.a >= 0 ? operand(i) : 0;
    switch (i.op) {
      case KOp::movi: set(i.dst, static_cast<std::uint32_t>(i.imm)); break;
      case KOp::mov: set(i.dst, get(i.a)); break;
      case KOp::add: set(i.dst, get(i.a) + b); break;
      case KOp::sub: set(i.dst, get(i.a) - b); break;
      case KOp::rsb: set(i.dst, b - get(i.a)); break;
      case KOp::mul: set(i.dst, get(i.a) * b); break;
      case KOp::udiv: set(i.dst, b == 0 ? 0 : get(i.a) / b); break;
      case KOp::sdiv: {
        const auto n = static_cast<std::int32_t>(get(i.a));
        const auto m = static_cast<std::int32_t>(b);
        set(i.dst, m == 0 ? 0
                   : (n == INT32_MIN && m == -1)
                       ? static_cast<std::uint32_t>(INT32_MIN)
                       : static_cast<std::uint32_t>(n / m));
        break;
      }
      case KOp::and_: set(i.dst, get(i.a) & b); break;
      case KOp::orr: set(i.dst, get(i.a) | b); break;
      case KOp::eor: set(i.dst, get(i.a) ^ b); break;
      case KOp::bic: set(i.dst, get(i.a) & ~b); break;
      case KOp::shl: set(i.dst, get(i.a) << (b & 31)); break;
      case KOp::shr_u: set(i.dst, get(i.a) >> (b & 31)); break;
      case KOp::shr_s:
        set(i.dst, static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(get(i.a)) >>
                       static_cast<int>(b & 31)));
        break;
      case KOp::ror:
        set(i.dst, support::rotate_right(get(i.a), b & 31));
        break;
      case KOp::mla: set(i.dst, get(i.a) * get(i.b) + get(i.c)); break;
      case KOp::bfx_u:
        set(i.dst, support::bits(get(i.a), i.lsb, i.bf_width));
        break;
      case KOp::bfx_s:
        set(i.dst, static_cast<std::uint32_t>(support::sign_extend(
                       support::bits(get(i.a), i.lsb, i.bf_width),
                       i.bf_width)));
        break;
      case KOp::bfi:
        set(i.dst, support::insert_bits(get(i.dst), get(i.a), i.lsb,
                                        i.bf_width));
        break;
      case KOp::bit_rev: set(i.dst, support::reverse_bits(get(i.a))); break;
      case KOp::byte_rev: set(i.dst, support::reverse_bytes(get(i.a))); break;
      case KOp::clz: set(i.dst, support::count_leading_zeros(get(i.a))); break;
      case KOp::ext_s8:
        set(i.dst, static_cast<std::uint32_t>(
                       support::sign_extend(get(i.a) & 0xFF, 8)));
        break;
      case KOp::ext_s16:
        set(i.dst, static_cast<std::uint32_t>(
                       support::sign_extend(get(i.a) & 0xFFFF, 16)));
        break;
      case KOp::ext_u8: set(i.dst, get(i.a) & 0xFF); break;
      case KOp::ext_u16: set(i.dst, get(i.a) & 0xFFFF); break;
      case KOp::select:
        set(i.dst, compare(i.cond, get(i.a), operand(i)) ? get(i.t)
                                                         : get(i.c));
        break;
      case KOp::ret:
        returned_ = true;
        result_ = get(i.a);
        break;
      default:
        ADD_FAILURE() << "unexpected opcode in fuzz program";
        break;
    }
  }

  std::vector<std::uint32_t> regs_;
  bool returned_ = false;
  std::uint32_t result_ = 0;
};

// Generates a random straight-line function over `live` virtual registers.
KFunction generate(support::Rng256& rng, int id) {
  KFunction f("fuzz" + std::to_string(id), 4);
  std::vector<VReg> pool = {0, 1, 2, 3};
  const auto any = [&pool, &rng] {
    return pool[rng.next_below(pool.size())];
  };
  const int len = 10 + static_cast<int>(rng.next_below(40));
  for (int k = 0; k < len; ++k) {
    const std::uint64_t kind = rng.next_below(12);
    // Mostly reuse registers; occasionally mint a new one (raises pressure
    // and exercises N16 spilling). Sources are always drawn from vregs that
    // are already defined, and bfi — which reads its destination — never
    // targets a fresh one; every value the program reads is thus
    // well-defined (the interpreter and the machine must agree on junk
    // otherwise).
    const bool mint = kind != 6 && rng.chance(0.25) && pool.size() < 14;
    // Draw the sources first so a freshly minted dst can't be one of them.
    const VReg s1 = any(), s2 = any(), s3 = any(), s4 = any();
    const VReg dst = mint ? [&] {
      const VReg v = f.v();
      pool.push_back(v);
      return v;
    }()
                          : any();
    switch (kind) {
      case 0:
        f.movi(dst, static_cast<std::int64_t>(rng.next_u32()));
        break;
      case 1: {
        static constexpr KOp ops[] = {KOp::add, KOp::sub, KOp::rsb,
                                      KOp::mul, KOp::and_, KOp::orr,
                                      KOp::eor, KOp::bic};
        f.arith(ops[rng.next_below(8)], dst, s1, s2);
        break;
      }
      case 2: {
        static constexpr KOp ops[] = {KOp::add, KOp::sub, KOp::and_,
                                      KOp::orr, KOp::eor};
        f.arith_imm(ops[rng.next_below(5)], dst, s1,
                    static_cast<std::int64_t>(rng.next_below(4096)));
        break;
      }
      case 3: {
        static constexpr KOp ops[] = {KOp::shl, KOp::shr_u, KOp::shr_s,
                                      KOp::ror};
        f.arith_imm(ops[rng.next_below(4)], dst, s1,
                    static_cast<std::int64_t>(rng.next_below(32)));
        break;
      }
      case 4:
        f.arith(rng.chance(0.5) ? KOp::udiv : KOp::sdiv, dst, s1, s2);
        break;
      case 5: {
        const unsigned width = 1 + static_cast<unsigned>(rng.next_below(31));
        const unsigned lsb = static_cast<unsigned>(
            rng.next_below(33 - width));
        f.bfx(dst, s1, lsb, width, rng.chance(0.5));
        break;
      }
      case 6: {
        const unsigned width = 1 + static_cast<unsigned>(rng.next_below(31));
        const unsigned lsb = static_cast<unsigned>(
            rng.next_below(33 - width));
        f.bfi(dst, s1, lsb, width);
        break;
      }
      case 7: {
        static constexpr KOp ops[] = {KOp::bit_rev, KOp::byte_rev, KOp::clz,
                                      KOp::ext_s8, KOp::ext_s16, KOp::ext_u8,
                                      KOp::ext_u16};
        f.unary(ops[rng.next_below(7)], dst, s1);
        break;
      }
      case 8: {
        static constexpr Cond conds[] = {Cond::eq, Cond::ne, Cond::lt,
                                         Cond::ge, Cond::hi, Cond::ls,
                                         Cond::gt, Cond::le};
        f.select(dst, conds[rng.next_below(8)], s1, s2, s3, s4);
        break;
      }
      case 9:
        f.mla(dst, s1, s2, s3);
        break;
      case 10:
        f.arith_imm(KOp::mul, dst, s1,
                    static_cast<std::int64_t>(rng.next_below(256)));
        break;
      default:
        f.mov(dst, s1);
        break;
    }
  }
  f.ret(pool[rng.next_below(pool.size())]);
  return f;
}

TEST(KirFuzz, RandomProgramsMatchInterpreterOnAllEncodings) {
  support::Rng256 rng(0xF00D);
  for (int trial = 0; trial < 60; ++trial) {
    const KFunction f = generate(rng, trial);
    std::uint32_t args[4];
    for (auto& a : args) {
      a = rng.next_u32();
    }
    KirInterpreter interp(f.num_vregs());
    for (int k = 0; k < 4; ++k) {
      interp.set(k, args[k]);
    }
    const std::uint32_t expected = interp.run(f);

    for (const Encoding enc :
         {Encoding::w32, Encoding::n16, Encoding::b32}) {
      const kir::LoweredProgram prog =
          kir::lower_program({&f}, enc, cpu::kFlashBase);
      cpu::System sys(
          cpu::SystemBuilder().encoding(enc).flash_size(256 * 1024));
      sys.load(prog.image);
      const std::uint32_t got = sys.call(
          prog.entry_of(f.name()), {args[0], args[1], args[2], args[3]});
      ASSERT_EQ(got, expected)
          << f.name() << " on " << isa::encoding_name(enc) << " args "
          << args[0] << "," << args[1] << "," << args[2] << "," << args[3];
    }
  }
}

// ----- 2. decode-cache differential fuzz --------------------------------------

// The decoded-instruction cache must be invisible to the model: running the
// same random program with the cache enabled and disabled has to retire an
// identical (pc, cycles) trace instruction by instruction, in both the
// ideal-memory and slow-flash (stateful prefetch streamer) regimes.
TEST(KirFuzz, CachedAndUncachedRunsRetireIdenticalTraces) {
  support::Rng256 rng(0xCAFE);
  for (int trial = 0; trial < 12; ++trial) {
    const KFunction f = generate(rng, trial);
    std::uint32_t args[4];
    for (auto& a : args) {
      a = rng.next_u32();
    }
    for (const Encoding enc :
         {Encoding::w32, Encoding::n16, Encoding::b32}) {
      for (const std::uint32_t flash_wait : {1u, 5u}) {
        const kir::LoweredProgram prog =
            kir::lower_program({&f}, enc, cpu::kFlashBase);
        const auto builder = [&](cpu::DispatchTier tier) {
          return cpu::SystemBuilder()
              .encoding(enc)
              .flash_size(256 * 1024)
              .flash_wait(flash_wait)
              .dispatch_tier(tier);
        };
        cpu::System cached(builder(cpu::DispatchTier::superblock));
        cpu::System reference(builder(cpu::DispatchTier::off));
        cached.load(prog.image);
        reference.load(prog.image);
        const std::uint32_t entry = prog.entry_of(f.name());
        cached.core().reset(entry, cached.initial_sp());
        reference.core().reset(entry, reference.initial_sp());
        for (int k = 0; k < 4; ++k) {
          cached.core().set_reg(static_cast<isa::Reg>(k), args[k]);
          reference.core().set_reg(static_cast<isa::Reg>(k), args[k]);
        }
        for (std::uint64_t step = 0; step < 1'000'000; ++step) {
          const bool a = cached.core().step();
          const bool b = reference.core().step();
          ASSERT_EQ(a, b) << f.name() << " step " << step;
          ASSERT_EQ(cached.core().pc(), reference.core().pc())
              << f.name() << " on " << isa::encoding_name(enc) << " wait "
              << flash_wait << " step " << step;
          ASSERT_EQ(cached.core().cycles(), reference.core().cycles())
              << f.name() << " on " << isa::encoding_name(enc) << " wait "
              << flash_wait << " step " << step;
          if (!a) {
            break;
          }
        }
        ASSERT_EQ(cached.core().halt_reason(), cpu::HaltReason::exited)
            << f.name();
        ASSERT_EQ(cached.core().reg(isa::r0), reference.core().reg(isa::r0));
        ASSERT_EQ(cached.core().cycles(), reference.core().cycles());
      }
    }
  }
}

// The same property, one tier up: all three dispatch tiers — uncached
// reference, per-instruction decode cache, and the threaded superblock
// dispatcher — must retire identical (pc, cycles) traces step by step, and
// in the streamer regimes leave identical flash statistics. The sweep
// covers the ideal 1-cycle flash and the streamer regimes (2, 3 and 5 wait
// states), the latter also with a dual-buffer controller and with
// legacy_hp timings (early-terminating multiply). A seeded invalidation storm flushes the
// cached tiers' decoded state at random instants mid-run; a flush may cost
// host work but must never move a guest-visible cycle. The final assertions
// prove the superblock tier actually engaged (blocks formed and retired
// instructions) in every regime rather than trivially passing by falling
// back to per-instruction execution.
TEST(KirFuzz, AllDispatchTiersRetireIdenticalTraces) {
  struct Regime {
    std::uint32_t flash_wait;
    bool dual_buffer;
    bool legacy_timings;
  };
  std::vector<Regime> regimes = {{1, false, false}};
  for (const std::uint32_t wait : {2u, 3u, 5u}) {
    for (const bool dual : {false, true}) {
      for (const bool legacy : {false, true}) {
        regimes.push_back({wait, dual, legacy});
      }
    }
  }
  std::vector<std::uint64_t> block_instructions(regimes.size(), 0);
  support::Rng256 rng(0x5B0C);
  for (int trial = 0; trial < 10; ++trial) {
    const KFunction f = generate(rng, trial);
    std::uint32_t args[4];
    for (auto& a : args) {
      a = rng.next_u32();
    }
    for (const Encoding enc :
         {Encoding::w32, Encoding::n16, Encoding::b32}) {
      const kir::LoweredProgram prog =
          kir::lower_program({&f}, enc, cpu::kFlashBase);
      for (std::size_t ri = 0; ri < regimes.size(); ++ri) {
        const Regime& rg = regimes[ri];
        const auto builder = [&](cpu::DispatchTier tier) {
          return cpu::SystemBuilder()
              .encoding(enc)
              .timings(rg.legacy_timings ? cpu::CoreTimings::legacy_hp()
                                         : cpu::CoreTimings::modern_mcu())
              .flash_size(256 * 1024)
              .flash_wait(rg.flash_wait)
              .flash_dual_buffer(rg.dual_buffer)
              .dispatch_tier(tier);
        };
        std::ostringstream where_os;
        where_os << f.name() << " on " << isa::encoding_name(enc) << " wait "
                 << rg.flash_wait << (rg.dual_buffer ? " dual" : "")
                 << (rg.legacy_timings ? " legacy" : "");
        const std::string where = where_os.str();
        cpu::System reference(builder(cpu::DispatchTier::off));
        cpu::System per_insn(builder(cpu::DispatchTier::per_insn));
        cpu::System sblock(builder(cpu::DispatchTier::superblock));
        cpu::System* const systems[] = {&reference, &per_insn, &sblock};
        const std::uint32_t entry = prog.entry_of(f.name());
        for (cpu::System* sys : systems) {
          sys->load(prog.image);
          sys->core().reset(entry, sys->initial_sp());
          for (int k = 0; k < 4; ++k) {
            sys->core().set_reg(static_cast<isa::Reg>(k), args[k]);
          }
        }
        ASSERT_EQ(sblock.core().dispatch_tier(),
                  cpu::DispatchTier::superblock);
        for (std::uint64_t step = 0; step < 1'000'000; ++step) {
          // Invalidation storm: flush the cached tiers' decoded state at a
          // random subset of boundaries (including mid-block for the
          // superblock tier, which is resumed via its cursor and must
          // re-form or fall back without a timing wobble).
          if (rng.chance(0.05)) {
            per_insn.core().invalidate_decoded();
            sblock.core().invalidate_decoded();
          }
          const bool a = reference.core().step();
          const bool b = per_insn.core().step();
          const bool c = sblock.core().step();
          ASSERT_EQ(a, b) << where << " step " << step;
          ASSERT_EQ(a, c) << where << " step " << step;
          for (cpu::System* sys : {&per_insn, &sblock}) {
            ASSERT_EQ(sys->core().pc(), reference.core().pc())
                << where << " step " << step;
            ASSERT_EQ(sys->core().cycles(), reference.core().cycles())
                << where << " step " << step;
          }
          if (!a) {
            break;
          }
        }
        const mem::Flash::Stats& want = reference.flash().stats();
        for (cpu::System* sys : systems) {
          ASSERT_EQ(sys->core().halt_reason(), cpu::HaltReason::exited)
              << where;
          ASSERT_EQ(sys->core().reg(isa::r0), reference.core().reg(isa::r0));
          if (rg.flash_wait == 1) {
            // State-free regime: fixed-cost hits skip the streamer's
            // bookkeeping counters by design (see code_cache.h).
            continue;
          }
          const mem::Flash::Stats& got = sys->flash().stats();
          EXPECT_EQ(got.stream_hits, want.stream_hits) << where;
          EXPECT_EQ(got.stream_next_line, want.stream_next_line) << where;
          EXPECT_EQ(got.stream_breaks, want.stream_breaks) << where;
          EXPECT_EQ(got.data_disruptions, want.data_disruptions) << where;
        }
        block_instructions[ri] += sblock.core().jit_stats().block_instructions;
      }
    }
  }
  // The property is vacuous in any regime where the superblock tier never
  // ran a block.
  for (std::size_t ri = 0; ri < regimes.size(); ++ri) {
    EXPECT_GT(block_instructions[ri], 0u)
        << "wait " << regimes[ri].flash_wait << " dual "
        << regimes[ri].dual_buffer << " legacy "
        << regimes[ri].legacy_timings;
  }
}

// ----- 3. decode fuzz ----------------------------------------------------------

class DecodeFuzz : public ::testing::TestWithParam<Encoding> {};

TEST_P(DecodeFuzz, DecodeEncodeFixedPoint) {
  const isa::Codec& codec = isa::codec_for(GetParam());
  support::Rng256 rng(0xBEEF);
  int decoded_count = 0;
  for (int trial = 0; trial < 40'000; ++trial) {
    std::uint8_t bytes[4];
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    isa::Instruction insn;
    const int n = codec.decode(bytes, insn);
    if (n == 0) {
      continue;
    }
    ++decoded_count;
    // Whatever decoded must re-encode to the same bytes.
    const bool pcrel = insn.addr == isa::AddrMode::pc_rel ||
                       insn.op == isa::Op::adr || insn.op == isa::Op::b ||
                       insn.op == isa::Op::bl || insn.op == isa::Op::cbz ||
                       insn.op == isa::Op::cbnz;
    const std::int64_t disp = pcrel ? insn.imm : 0;
    const int size = codec.size_for(insn, disp);
    char bytestr[16];
    std::snprintf(bytestr, sizeof bytestr, "%02x%02x%02x%02x", bytes[0],
                  bytes[1], bytes[2], bytes[3]);
    ASSERT_GT(size, 0) << isa::disassemble(insn, 0) << " trial " << trial
                       << " bytes " << bytestr;
    std::vector<std::uint8_t> out;
    codec.encode(insn, disp, size, out);
    if (size == n) {
      // Same length: bytes must be identical (catches ignored fields).
      for (int k = 0; k < n; ++k) {
        ASSERT_EQ(out[static_cast<std::size_t>(k)], bytes[k])
            << isa::disassemble(insn, 0) << " byte " << k << " trial "
            << trial << " bytes " << bytestr;
      }
    } else {
      // The only tolerated divergence: a wide pattern whose instruction
      // also has a narrow form re-encodes shorter (narrow-preferred
      // assembler); it must still decode to the same instruction.
      ASSERT_LT(size, n) << isa::disassemble(insn, 0) << " trial " << trial
                         << " bytes " << bytestr;
      isa::Instruction again;
      ASSERT_EQ(codec.decode(out, again), size)
          << isa::disassemble(insn, 0);
      EXPECT_EQ(again.op, insn.op) << isa::disassemble(insn, 0);
      EXPECT_EQ(again.rd, insn.rd);
      EXPECT_EQ(again.rn, insn.rn);
      EXPECT_EQ(again.imm, insn.imm);
    }
  }
  // The opcode space must be reasonably dense.
  EXPECT_GT(decoded_count, 1000);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, DecodeFuzz,
                         ::testing::Values(Encoding::w32, Encoding::n16,
                                           Encoding::b32),
                         [](const auto& info) {
                           return std::string(
                               isa::encoding_name(info.param));
                         });

}  // namespace
}  // namespace aces

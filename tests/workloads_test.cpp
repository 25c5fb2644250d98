// Cross-encoding equivalence for the whole AutoIndy-like suite: every
// kernel, lowered to every encoding, must match its host reference on many
// randomized instances. This is the correctness backbone under Table 1.
#include <gtest/gtest.h>

#include "cpu/profiles.h"
#include "kir/lower.h"
#include "workloads/autoindy.h"
#include "workloads/runner.h"

namespace aces::workloads {
namespace {

using cpu::System;
using cpu::SystemBuilder;
using isa::Encoding;

SystemBuilder config_for(Encoding e) {
  return cpu::profiles::for_encoding(e).flash_size(128 * 1024);
}

struct Case {
  std::size_t kernel_index;
  Encoding encoding;
};

class SuiteEquivalence
    : public ::testing::TestWithParam<Case> {};

TEST_P(SuiteEquivalence, MatchesHostReference) {
  const Kernel& kernel = autoindy_suite()[GetParam().kernel_index];
  const Encoding enc = GetParam().encoding;
  const kir::KFunction f = kernel.build();
  const kir::LoweredProgram prog =
      kir::lower_program({&f}, enc, cpu::kFlashBase);
  System sys(config_for(enc));
  sys.load(prog.image);
  support::Rng256 rng(1234 + GetParam().kernel_index);
  for (int k = 0; k < 25; ++k) {
    const Instance in = kernel.make_instance(rng, kDataBase);
    const RunResult r = run_instance(sys, prog.entry_of(kernel.name), in);
    ASSERT_EQ(r.value, in.expected)
        << kernel.name << " on " << isa::encoding_name(enc)
        << " instance " << k;
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (std::size_t k = 0; k < autoindy_suite().size(); ++k) {
    for (const Encoding e :
         {Encoding::w32, Encoding::n16, Encoding::b32}) {
      cases.push_back(Case{k, e});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllEncodings, SuiteEquivalence, ::testing::ValuesIn(all_cases()),
    [](const auto& info) {
      return autoindy_suite()[info.param.kernel_index].name + "_" +
             std::string(isa::encoding_name(info.param.encoding));
    });

TEST(Suite, HasSixKernels) {
  EXPECT_EQ(autoindy_suite().size(), 6u);
}

TEST(Suite, DensityShapeHolds) {
  // Table 1 precondition: summed over the suite, N16 and B32 code is far
  // smaller than W32 and B32 is within ~15% of N16.
  std::uint32_t w = 0, n = 0, b = 0;
  for (const Kernel& kernel : autoindy_suite()) {
    const kir::KFunction f = kernel.build();
    w += kir::lower_program({&f}, Encoding::w32, 0).code_bytes;
    n += kir::lower_program({&f}, Encoding::n16, 0).code_bytes;
    b += kir::lower_program({&f}, Encoding::b32, 0).code_bytes;
  }
  // Paper shape: both compressed encodings are far denser than W32 and B32
  // is at least as dense as N16 (the paper reports 57%/57%; our teaching-
  // grade allocator lands N16 nearer 72%, see "Reproducing the paper" in
  // README.md).
  EXPECT_LT(n, w * 80 / 100) << "N16 should be well under 80% of W32";
  EXPECT_LT(b, w * 70 / 100) << "B32 should be well under 70% of W32";
  EXPECT_LE(b, n) << "B32 must not be less dense than N16";
}

TEST(Suite, AblationAllOffStillCorrect) {
  // B32 with every feature disabled must still compute correct results
  // (it degenerates to roughly Thumb-1-plus-wide-ALU).
  kir::LoweringOptions opts = kir::LoweringOptions::for_encoding(
      Encoding::b32);
  opts.use_movw_movt = false;
  opts.use_bitfield = false;
  opts.use_hw_divide = false;
  opts.use_it_blocks = false;
  opts.use_cbz = false;
  for (const Kernel& kernel : autoindy_suite()) {
    const kir::KFunction f = kernel.build();
    const kir::LoweredProgram prog =
        kir::lower_program({&f}, Encoding::b32, opts, cpu::kFlashBase);
    System sys(config_for(Encoding::b32));
    sys.load(prog.image);
    support::Rng256 rng(777);
    for (int k = 0; k < 5; ++k) {
      const Instance in = kernel.make_instance(rng, kDataBase);
      const RunResult r = run_instance(sys, prog.entry_of(kernel.name), in);
      ASSERT_EQ(r.value, in.expected) << kernel.name << " ablated";
    }
  }
}

}  // namespace
}  // namespace aces::workloads

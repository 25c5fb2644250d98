// E12 — the campaign engine at production scale.
//
// Expands the vehicle preset (campaign/presets.h) into >= 1000 seeded
// variants — bit-error period x gateway queue depth x bus load over the
// 3-bus / 23-ECU topology — and fans them across the worker pool. Three
// properties are self-checked here, not just reported:
//
//   scaling      the same subset campaign is timed at 1, 2 and N workers
//               (near-linear on real cores; also how CI smoke-tests the
//               pool), and its deterministic report must be byte-identical
//               at every worker count;
//   soundness    no fault-free variant may exceed its sched::path_rta
//               bound (analysis >= simulation is the repo's core claim);
//   replay       the first violating variant, re-run alone from its
//               (spec, seed) pair, must reproduce its fingerprint exactly.
//
// `--json PATH` writes the BENCH_campaign.json CI artifact: the full
// campaign report (with timing) wrapped with the scaling sweep.
//
//   bench_campaign [--variants N] [--horizon-ms M] [--json PATH]
#include <cstdio>

#include "bench_util.h"
#include "campaign/presets.h"

using namespace aces;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::ScenarioSpec;

namespace {

void print_summary(const CampaignResult& r) {
  std::printf("%-12s %8s %10s %10s %10s %10s %8s\n", "path", "frames",
              "min_us", "mean_us", "p99_us", "max_us", "viol");
  for (const auto& p : r.paths) {
    std::printf("%-12s %8llu %10.1f %10.1f %10.1f %10.1f %8llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.frames),
                static_cast<double>(p.min_latency) / 1000.0,
                p.mean_latency / 1000.0,
                static_cast<double>(p.p99_latency) / 1000.0,
                static_cast<double>(p.max_latency) / 1000.0,
                static_cast<unsigned long long>(p.bound_exceeded_variants));
  }
  std::printf("violating %llu / %llu variants (rta %llu, unschedulable "
              "%llu, drops %llu, bus-off %llu, deadline %llu); bit errors "
              "%llu\n",
              static_cast<unsigned long long>(r.violating_variants),
              static_cast<unsigned long long>(r.variants.size()),
              static_cast<unsigned long long>(r.rta_violations),
              static_cast<unsigned long long>(r.unschedulable),
              static_cast<unsigned long long>(r.overflow_drops),
              static_cast<unsigned long long>(r.bus_off_events),
              static_cast<unsigned long long>(r.deadline_misses),
              static_cast<unsigned long long>(r.bit_errors));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args{argc, argv};
  const char* json_path = args.get("--json");
  const auto want_variants =
      static_cast<std::size_t>(args.num("--variants", 1008));
  const sim::SimTime horizon =
      args.num("--horizon-ms", 250) * sim::kMillisecond;

  ScenarioSpec spec = campaign::presets::vehicle_spec(horizon);
  support::JsonWriter json;
  bench::open_campaign_bench("bench_campaign", "E12: campaign engine", spec,
                             want_variants, {}, json);

  // --- the full campaign -------------------------------------------------
  const CampaignResult full = CampaignRunner().run(spec);
  print_summary(full);

  // Soundness: a fault-free variant must never beat its analytic bound.
  std::uint64_t fault_free = 0;
  for (const auto& v : full.variants) {
    if (bench::axis_of(v, "error_period_ns") != 0.0) {
      continue;
    }
    ++fault_free;
    for (const auto& p : v.paths) {
      ACES_CHECK_MSG(!p.bound_exceeded,
                     "fault-free variant exceeded its path_rta bound");
    }
  }
  std::printf("soundness: %llu fault-free variants all within path_rta "
              "bounds\n", static_cast<unsigned long long>(fault_free));

  // Replay: the first violating variant must reproduce bit-identically.
  if (const auto* v = full.first_violating()) {
    bench::check_replay(spec, *v);
  } else {
    std::printf("replay: no violating variant to replay\n");
  }

  if (json_path != nullptr) {
    json.key("campaign");
    full.write_json(json, /*with_timing=*/true);
    json.end();
    support::write_json_file(json_path, json);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

// campaign::CampaignRunner — fan a ScenarioSpec's variants across a worker
// pool and aggregate distributions against analytic bounds.
//
// Each worker owns one variant at a time and builds it a private
// net::Network (own sim::Simulation, buses, nodes — no shared mutable
// state anywhere in the library), so variants are embarrassingly parallel
// and every run is bit-identical to the same variant run alone: the
// determinism contract tests/campaign_test.cpp pins is that a 1-worker and
// an N-worker campaign produce byte-identical deterministic reports.
// Results are stored and aggregated by variant index, never by completion
// order.
//
// The aggregate is a machine-readable JSON report (the BENCH_campaign.json
// CI artifact): per-routed-path latency distributions (min / mean / p99 /
// max plus a fixed-bin histogram) checked against sched::path_rta, and
// RTA-violation / overflow / bus-off / deadline-miss counters, with every
// violating variant listed as its replayable (index, seed) pair.
#ifndef ACES_CAMPAIGN_RUNNER_H
#define ACES_CAMPAIGN_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "support/json.h"

namespace aces::campaign {

// Fixed-bin latency histogram; the last bin is the overflow bucket. Bin
// geometry is uniform across variants, so per-variant histograms merge by
// bin-wise addition in index order — what keeps the aggregate independent
// of worker count.
struct LatencyHistogram {
  sim::SimTime bin_width = 0;
  std::vector<std::uint64_t> bins;

  void add(sim::SimTime v);
  void merge(const LatencyHistogram& other);
  // Smallest upper bin edge covering fraction `p` of the samples (the
  // overflow bucket reports as the histogram ceiling). 0 when empty.
  [[nodiscard]] sim::SimTime percentile(double p) const;
};

// Measured distribution + analytic bound for one path in one variant.
struct PathResult {
  std::uint64_t frames = 0;
  sim::SimTime min_latency = 0;
  sim::SimTime max_latency = 0;
  sim::SimTime total_latency = 0;
  LatencyHistogram hist;
  sim::SimTime bound = 0;  // operative path_rta bound (0: no hops given)
  bool bound_schedulable = false;
  bool bound_exceeded = false;  // measured max > schedulable bound
  // delivered / expected when PathSpec::expected_period > 0, else -1.
  double availability = -1.0;
};

struct VariantResult {
  std::uint32_t index = 0;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> params;
  std::vector<PathResult> paths;  // one per ScenarioSpec::paths entry
  std::uint64_t bit_errors = 0;
  std::uint64_t bus_off_events = 0;
  std::uint64_t overflow_drops = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t events = 0;  // simulation events executed
  // Alive-supervision outcome, summed over every supervisor the variant's
  // configure hook installed (net::SupervisorNode).
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t mitigations = 0;
  std::uint64_t recoveries = 0;
  // Every measured fault -> recovery latency, in occurrence order.
  std::vector<sim::SimTime> recovery_times;
  // The per-variant watchdog (Config::watchdog_events /
  // watchdog_wall_seconds) stopped this variant before the horizon: a hung
  // variant fails loudly instead of wedging the worker pool.
  bool watchdog_tripped = false;
  // FNV-1a over every counter above (and per-path fields): the replay
  // identity — equal fingerprints mean bit-identical runs.
  std::uint64_t fingerprint = 0;
  std::vector<std::string> violations;  // empty = clean variant

  [[nodiscard]] bool violating() const { return !violations.empty(); }
};

struct CampaignResult {
  std::string spec_name;
  std::uint64_t master_seed = 0;
  sim::SimTime horizon = 0;
  std::vector<SweepAxis> axes;
  std::vector<VariantResult> variants;  // by variant index

  struct PathAggregate {
    std::string name;
    std::uint64_t frames = 0;
    sim::SimTime min_latency = 0;
    sim::SimTime max_latency = 0;
    double mean_latency = 0.0;
    sim::SimTime p99_latency = 0;
    LatencyHistogram hist;
    std::uint64_t bound_exceeded_variants = 0;
    std::uint64_t unschedulable_variants = 0;
    // Campaign-wide availability: total delivered / total expected across
    // variants (-1 when the path declares no expected_period), and the
    // worst single variant.
    double availability = -1.0;
    double min_availability = -1.0;
  };
  std::vector<PathAggregate> paths;

  // Campaign-wide counters.
  std::uint64_t violating_variants = 0;
  std::uint64_t rta_violations = 0;      // bound_exceeded across variants
  std::uint64_t unschedulable = 0;       // variants with an unschedulable path
  std::uint64_t overflow_drops = 0;
  std::uint64_t bus_off_events = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t bit_errors = 0;
  // Supervision roll-up: heartbeat deadline misses, mitigation actions
  // fired, completed recoveries, and the fault -> recovery distribution.
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t mitigations = 0;
  std::uint64_t recoveries = 0;
  sim::SimTime recovery_p99 = 0;
  sim::SimTime recovery_max = 0;
  LatencyHistogram recovery_hist;
  std::uint64_t watchdog_timeouts = 0;  // variants the watchdog stopped

  // Timing (excluded from the deterministic report).
  unsigned workers = 0;
  double wall_seconds = 0.0;
  double variants_per_second = 0.0;

  [[nodiscard]] const VariantResult* first_violating() const;

  // The machine-readable report. With `with_timing` false the output is a
  // pure function of the variant results — byte-identical across worker
  // counts (the determinism test compares exactly this form); the bench
  // artifact includes the timing section. The first kMaxListedViolations
  // violating variants are listed, with the true total alongside so the
  // cap is never silent.
  static constexpr std::size_t kMaxListedViolations = 64;
  [[nodiscard]] std::string to_json(bool with_timing = true) const;
  // The same report as one value inside a larger document.
  void write_json(support::JsonWriter& w, bool with_timing) const;
};

class CampaignRunner {
 public:
  struct Config {
    // Variants run in parallel, one per worker; each variant runs on a
    // single shard thread. 0 = one per hardware thread.
    // Never changes results: the deterministic report is byte-identical
    // across worker counts.
    unsigned workers = 0;
    // Histogram geometry shared by every variant (merging requires it).
    unsigned hist_bins = 64;
    sim::SimTime hist_max = 50 * sim::kMillisecond;
    // Per-variant watchdog, 0 = off. A variant executing more than
    // `watchdog_events` simulation events (deterministic) or running
    // longer than `watchdog_wall_seconds` of wall clock (the backstop for
    // a genuinely wedged variant; trips are timing-dependent, so keep the
    // event limit as the primary guard in deterministic campaigns) is
    // stopped and reported as watchdog_tripped instead of hanging its
    // worker forever.
    std::uint64_t watchdog_events = 0;
    double watchdog_wall_seconds = 0.0;
  };

  CampaignRunner() = default;
  explicit CampaignRunner(Config config) : config_(config) {}

  // Expands the spec and runs every variant across the worker pool.
  [[nodiscard]] CampaignResult run(const ScenarioSpec& spec) const;

  // Single-run replay entry point: re-executes one variant alone on the
  // calling thread. The seed must match the spec's derivation for `index`
  // (checked) — the (spec, seed) pair is the reproduction contract, so a
  // stale seed from a different spec revision fails loudly instead of
  // replaying the wrong experiment.
  [[nodiscard]] VariantResult replay(const ScenarioSpec& spec,
                                     std::uint32_t index,
                                     std::uint64_t seed) const;

 private:
  [[nodiscard]] VariantResult run_variant(const ScenarioSpec& spec,
                                          const Variant& v) const;

  Config config_;
};

}  // namespace aces::campaign

#endif  // ACES_CAMPAIGN_RUNNER_H

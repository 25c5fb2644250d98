// Shared plumbing of the end-to-end benchmark: options, host provenance,
// correctness-check accounting, metric collection and small statistics.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace aces {}

namespace perfbench {

// The benchmark is written against the library's public namespaces
// (net::, sim::, can::, ...).
using namespace aces;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The seed every workload's fixed fingerprint is recorded for.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  // measured phase length (host wall clock)
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its Chrome trace
};

// Host and build provenance, printed with every result.
struct Host {
  unsigned nproc = 1;                 // CPUs this process may run on
  unsigned hardware_concurrency = 1;  // std::thread::hardware_concurrency
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
  std::string sanitize;

  // The thread count to request where a library default resolves from
  // hardware concurrency: 0 (the library default) unless the machine
  // reports more hardware threads than this process may use, then nproc.
  [[nodiscard]] unsigned thread_request() const {
    return hardware_concurrency > nproc ? nproc : 0;
  }
  [[nodiscard]] bool release() const {
    return build_type == "Release" && sanitize.empty();
  }
};
[[nodiscard]] Host probe_host();

// FNV-1a over 64-bit words: the simulated-statistics fingerprint.
struct Fnv1a {
  std::uint64_t h = 0xCBF2'9CE4'8422'2325ull;
  void add(std::uint64_t x) {
    for (int k = 0; k < 8; ++k) {
      h ^= (x >> (8 * k)) & 0xFF;
      h *= 0x0000'0100'0000'01B3ull;
    }
  }
  void add_bytes(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x0000'0100'0000'01B3ull;
    }
  }
};

// Correctness checks: a failed check is counted and reported on stderr; it
// never aborts the run (fail_frac = failed / attempted).
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main: every metric of its mode (end-to-end
// untraced, per-layer traced), the check tally, and provenance extras.
struct Outcome {
  std::vector<Metric> metrics;
  Checks checks;
  // Resolved parallelism and run shape, for the provenance line.
  std::vector<std::pair<std::string, std::string>> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Replaces the value of the metric `name` added before.
  void set(const std::string& name, double value) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("no metric " + name);
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
};

// f(x) for every x of `xs`.
template <typename T, typename F>
[[nodiscard]] std::vector<double> each(const std::vector<T>& xs, F f) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (const T& x : xs) {
    out.push_back(f(x));
  }
  return out;
}

// Quantile by linear interpolation between closest ranks (q in [0, 1]);
// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// Median of a[k] / b[k] over paired samples: the pairs were measured
// back to back, so a change of host speed between pairs cancels.
[[nodiscard]] inline double median_ratio(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  std::vector<double> r;
  for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
    r.push_back(a[k] / b[k]);
  }
  return median(std::move(r));
}

// Notes a host-time sample as `<name>`: its count, minimum, median and the
// highest percentile with at least ten samples beyond it.
void note_distribution(Outcome& out, const std::string& name,
                       const std::vector<double>& ms);

// Host CPU time counters (all CPUs), for the share of time the hypervisor
// gave to other guests (steal) while the benchmark ran.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();

// Runs the calling thread on one CPU at a time, moving it to the next CPU
// of the set it started with at most once per `period_s`. On a shared host
// each CPU switches between a fast and a slow state that last seconds,
// independently of the other CPUs, so a single-threaded run kept on one
// CPU can spend all of it in the slow state. Visiting every CPU in turn
// lets the run's fastest repetition find the fast state of one of them;
// between moves the thread stays put, so its caches stay warm.
class CpuRotation {
 public:
  explicit CpuRotation(double period_s);
  // Moves to the next CPU once `period_s` has passed since the last move.
  void tick();
  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }
  [[nodiscard]] std::size_t moves() const { return moves_; }

 private:
  void move();

  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::size_t moves_ = 0;
  double period_s_;
  Clock::time_point last_;
};

// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H

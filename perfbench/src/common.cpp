#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

Host probe_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    h.nproc = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  h.hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) {
    h.cpu_model = "unknown";
  }
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.sanitize = PERFBENCH_SANITIZE;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void note_distribution(Outcome& out, const std::string& name,
                       const std::vector<double>& ms) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "n=%zu min=%.3fms p50=%.3fms", ms.size(),
                quantile(ms, 0.0), quantile(ms, 0.5));
  std::string text = buf;
  if (ms.size() > 20) {  // the tail percentile lies above the median
    const double q = 1.0 - 10.0 / static_cast<double>(ms.size());
    std::snprintf(buf, sizeof buf, " p%.0f=%.3fms", std::floor(100.0 * q),
                  quantile(ms, std::floor(100.0 * q) / 100.0));
    text += buf;
  }
  out.note(name, text);
}

CpuTimes read_cpu_times() {
  // /proc/stat: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  stat >> cpu;
  for (int k = 0; k < 8 && stat; ++k) {
    std::uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (k == 7) {
      t.steal = v;
    }
  }
  return t;
}

CpuRotation::CpuRotation(double period_s) : period_s_(period_s) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
  move();
}

void CpuRotation::tick() {
  if (seconds_between(last_, Clock::now()) >= period_s_) {
    move();
  }
}

void CpuRotation::move() {
  last_ = Clock::now();
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  if (sched_setaffinity(0, sizeof set, &set) == 0) {
    ++moves_;
  }
  next_ = (next_ + 1) % cpus_.size();
}

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark; getrusage's ru_maxrss
  // would also count the parent's resident set at fork, kept across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

}  // namespace perfbench

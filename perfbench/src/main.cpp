// aces_perfbench — the end-to-end simulation-speed benchmark.
//
//   aces_perfbench --workload vehicle|iss_fleet|campaign --seed N
//                  --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics (sim_rate, variants_per_s,
// setup_s, peak_rss_mb); --trace 1 is the separate traced run that reports
// the per-layer metrics and writes DIR/<workload>-seed<N>.trace.json.
// Every run checks the simulated results; failed checks are counted
// (fail_frac = failed / attempted), never fatal. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aces_perfbench: %s\n"
               "usage: aces_perfbench --workload vehicle|iss_fleet|campaign "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (k + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++k];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
      if (!o.trace && std::strcmp(value, "0") != 0) {
        usage("--trace takes 0 or 1");
      }
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed number for " + arg).c_str());
    }
  }
  if (o.workload != "vehicle" && o.workload != "iss_fleet" &&
      o.workload != "campaign") {
    usage("--workload must be vehicle, iss_fleet or campaign");
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Host host = probe_host();
  const CpuTimes cpu0 = read_cpu_times();
  Outcome out;
  try {
    if (opt.workload == "campaign") {
      out = run_campaign(opt, host);
    } else {
      const auto w = opt.workload == "vehicle" ? make_vehicle(opt.seed)
                                               : make_iss_fleet(opt.seed);
      out = run_network_workload(*w, opt, host);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aces_perfbench: %s\n", e.what());
    return 1;
  }

  std::string prov = "{";
  const auto field = [&prov](const std::string& k, const std::string& v) {
    prov += (prov.size() > 1 ? ", " : "") + json_string(k) + ": " +
            json_string(v);
  };
  field("workload", opt.workload);
  field("seed", std::to_string(opt.seed));
  field("seconds", std::to_string(opt.seconds));
  field("trace", opt.trace ? "1" : "0");
  field("nproc", std::to_string(host.nproc));
  field("hardware_concurrency", std::to_string(host.hardware_concurrency));
  field("cpu_model", host.cpu_model);
  field("build_type", host.build_type);
  field("compiler", host.compiler);
  field("sanitize", host.sanitize.empty() ? "none" : host.sanitize);
  for (const auto& [k, v] : out.notes) {
    field(k, v);
  }
  // Steal time slows multi-threaded runs far more than their CPU share:
  // a shard barrier waits for the slowest descheduled thread.
  const CpuTimes cpu1 = read_cpu_times();
  char steal[32];
  std::snprintf(steal, sizeof steal, "%.4f",
                cpu1.total > cpu0.total
                    ? static_cast<double>(cpu1.steal - cpu0.steal) /
                          static_cast<double>(cpu1.total - cpu0.total)
                    : 0.0);
  field("host_steal_share", steal);
  std::printf("provenance %s}\n", prov.c_str());
  if (!host.release()) {
    std::printf("WARNING: not a Release build (build type %s, sanitize %s): "
                "timings are not comparable\n",
                host.build_type.c_str(),
                host.sanitize.empty() ? "none" : host.sanitize.c_str());
  }

  const std::uint64_t attempted = out.checks.attempted();
  const std::uint64_t failed = out.checks.failed();
  for (const Metric& m : out.metrics) {
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-28s %16.6f ratio (%llu of %llu checks failed)\n",
              "fail_frac",
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t k = 0; k < out.metrics.size(); ++k) {
    const Metric& m = out.metrics[k];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (k == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            value + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

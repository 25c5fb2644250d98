// The benchmark's workloads.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>

#include "common.h"
#include "netbench.h"

namespace perfbench {

[[nodiscard]] std::unique_ptr<NetWorkload> make_vehicle(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<NetWorkload> make_iss_fleet(std::uint64_t seed);
[[nodiscard]] Outcome run_campaign(const Options& opt, const Host& host);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H

#pragma once
// The benchmark's three workloads and the wrapper-equivalence self-check.

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

RunResult run_serve_zipf(const Constants& c, const RunOptions& opt);
RunResult run_batch_sim(const Constants& c, const RunOptions& opt);
RunResult run_serve_sharded_updates(const Constants& c, const RunOptions& opt);

/// Run the same streams through wrapped and unwrapped backends on a small
/// configuration (sim, analytic, 2 shards) and return every difference in
/// neighbours, BackendStats or per-step modeled time (empty = equivalent).
std::vector<std::string> wrapper_selfcheck(const Constants& c, std::uint64_t seed);

}  // namespace perfbench

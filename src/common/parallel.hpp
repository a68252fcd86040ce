#pragma once
// Parallel loop helpers for the host path: thin forwards to the process-wide
// persistent work-stealing executor (common/executor.hpp). Loop contract:
// body(i) runs at most once per index (exactly once if no invocation
// throws); after the first captured exception the remaining indices
// short-circuit, and that exception is rethrown on the calling thread once
// the loop drains. A thread cap of 1 runs every loop inline on the caller.

#include <cstddef>

#include "common/executor.hpp"

namespace drim {

/// Number of lanes host loops use: the set_num_threads cap, else hardware
/// concurrency.
inline int num_threads() { return Executor::instance().effective_parallelism(); }

/// Cap the lanes of every later loop (0 = leave unchanged). Returns the
/// effective count. A cap above hardware concurrency grows the pool.
inline int set_num_threads(int n) { return Executor::instance().set_thread_cap(n); }

/// Parallel for over [begin, end) with dynamic (work-stealing) scheduling.
/// `body` must be safe to run concurrently for distinct indices.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
  Executor::instance().parallel_for(begin, end, body);
}

}  // namespace drim

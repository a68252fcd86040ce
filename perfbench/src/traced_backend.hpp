#pragma once
// Forwarding AnnBackend wrapper that measures the library from outside.
//
// Every call is forwarded unchanged to the wrapped backend. When a SpanLog is
// attached, each call also leaves one host wall-clock span (name, start, end,
// parent span, request handle, step index). Independently of the log, the
// wrapper records what the calls return — each step's BackendStepStats, and
// per handle the consuming step, the step after which finished() first held,
// the index version at enqueue, and the taken neighbours — which is where the
// benchmark's modeled per-layer numbers come from.
//
// A wrapper never changes what the wrapped backend computes; the benchmark's
// self-check runs the same streams through wrapped and unwrapped backends and
// compares neighbours and modeled stats bit for bit.

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "backend/ann_backend.hpp"

namespace perfbench {

/// One host wall-clock span. Times are seconds since the log's epoch.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 at the root
  std::int64_t request = -1;  ///< request handle (enqueue/finished/take)
  std::int64_t step = -1;     ///< step index (step spans)
  int level = 0;              ///< 0 benchmark, 1 backend, 2 shard backend
};

/// In-memory span store. Calls are single-threaded (the serving loop and the
/// cluster router both call their backends from one thread), so the parent
/// of a span is whichever span is open when it starts.
class SpanLog {
 public:
  SpanLog();
  double now() const;
  /// Open a span; returns its index.
  std::int64_t open(const char* name, int level, std::int64_t request = -1,
                    std::int64_t step = -1);
  void close(std::int64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome-trace JSON (one complete event per span).
  void write_json(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Opens a span on construction and closes it on destruction (no-op without
/// a log).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int level, std::int64_t request = -1,
             std::int64_t step = -1)
      : log_(log), id_(log != nullptr ? log->open(name, level, request, step) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

/// What the wrapper saw for one request handle.
struct HandleRecord {
  const float* query = nullptr;    ///< payload pointer passed to enqueue()
  std::int64_t consume_step = -1;  ///< index of the step that consumed it
  std::int64_t finish_step = -1;   ///< last step before finished() first held
  std::uint64_t version = 0;       ///< snapshot_version() at enqueue
  std::vector<drim::Neighbor> results;  ///< what take_results() returned
  bool taken = false;
};

class TracedBackend final : public drim::AnnBackend {
 public:
  /// `log` may be null (record returns only, no spans). `level` tags spans:
  /// 1 for a top-level backend, 2 for a shard behind a cluster router.
  TracedBackend(std::unique_ptr<drim::AnnBackend> inner, SpanLog* log, int level);

  drim::AnnBackend& inner() { return *inner_; }
  const drim::AnnBackend& inner() const { return *inner_; }

  const std::vector<drim::BackendStepStats>& steps() const { return steps_; }
  const std::vector<HandleRecord>& handles() const { return handles_; }
  /// Last value estimate_batch_seconds() returned (what the caller requested).
  double requested_estimate() const { return requested_estimate_; }
  /// Attach (or detach, with nullptr) the span log.
  void set_log(SpanLog* log) { log_ = log; }
  /// Read `*ops_applied` at every stage_snapshot() call, so each published
  /// version can be matched to the update ops it contains.
  void watch_ops_applied(const std::size_t* ops_applied) { ops_applied_ = ops_applied; }
  /// (version, ops applied before its publish) per stage_snapshot() call.
  const std::vector<std::pair<std::uint64_t, std::size_t>>& publishes() const {
    return publishes_;
  }

  std::string name() const override;
  std::vector<std::vector<drim::Neighbor>> search(const drim::FloatMatrix& queries,
                                                  std::size_t k,
                                                  std::size_t nprobe) override;
  void reset_stream() override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override;
  std::uint32_t enqueue(std::span<const float> query, std::size_t k, std::size_t nprobe,
                        drim::Precision precision) override;
  bool supports_routed_enqueue() const override;
  std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                               std::span<const std::uint32_t> probes) override;
  std::uint32_t enqueue_routed(std::span<const float> query, std::size_t k,
                               std::span<const std::uint32_t> probes,
                               drim::Precision precision) override;
  double locate_cost_seconds(std::size_t num_queries) const override;
  std::vector<drim::ShardHealth> shard_health() const override;
  drim::BackendStepStats step(std::size_t max_queries, bool flush) override;
  std::size_t pipeline_depth() const override;
  void set_step_start(double submit_seconds) override;
  bool has_deferred() const override;
  std::size_t deferred_count() const override;
  void set_trace(drim::obs::TraceRecorder* trace) override;
  bool finished(std::uint32_t handle) const override;
  std::vector<drim::Neighbor> take_results(std::uint32_t handle) override;
  std::size_t stream_depth() const override;
  double estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                std::size_t k) const override;
  drim::BackendStats stats() const override;
  bool supports_updates() const override;
  double stage_snapshot(const drim::IndexSnapshot& snapshot,
                        const drim::PublishDelta& delta) override;
  double stage_relayout() override;
  std::uint64_t snapshot_version() const override;

 private:
  std::uint32_t record_enqueue(std::uint32_t handle, const float* query);

  std::unique_ptr<drim::AnnBackend> inner_;
  SpanLog* log_;
  int level_;
  std::vector<drim::BackendStepStats> steps_;
  // finished() is const on the seam but the first true answer is an
  // observation the wrapper records.
  mutable std::vector<HandleRecord> handles_;
  mutable double requested_estimate_ = 0.0;
  const std::size_t* ops_applied_ = nullptr;
  std::vector<std::pair<std::uint64_t, std::size_t>> publishes_;
};

}  // namespace perfbench

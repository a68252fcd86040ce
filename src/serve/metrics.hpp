#pragma once
// Per-request latency accounting and SLO metrics for the serving runtime.
// Every request ends as a RequestRecord (served with a latency decomposition,
// or shed), and summarize() folds a trace's records into the serving numbers
// the paper family cares about: tail percentiles vs offered load, goodput
// (served inside the SLO), shed and timeout rates.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "backend/ann_backend.hpp"
#include "serve/workload.hpp"

namespace drim::serve {

/// Final disposition of one request.
struct RequestRecord {
  Request request;
  bool shed = false;          ///< rejected at admission; latency fields unset
  bool degraded = false;      ///< served on the cheap Q4 rung (degrade-before-shed)
  std::size_t results = 0;    ///< neighbors returned (k when served)
  double done_s = 0.0;        ///< completion on the virtual clock
  double latency_s = 0.0;     ///< done_s - arrival_s

  // Decomposition of the served path:
  //   latency_s = queue_wait_s + deferred_s + (span of the completing step),
  // where the span runs from the completing step's launch to done_s (for a
  // request an install's flush completed, from the install's start).
  // queue_wait is the request's own (arrival -> its first step's launch);
  // deferred_s is the time the filter's deferrals added on top (0 when the
  // first step completed it). The phase terms below are the completing
  // step's modeled times (the whole step completes together).
  double queue_wait_s = 0.0;
  double deferred_s = 0.0;  ///< first step's launch -> completing step's launch
  /// Steps the request's tasks ran in, first to completing inclusive (1 when
  /// nothing was deferred; an install's flush counts as one step).
  std::size_t steps_spanned = 0;
  double host_cl_s = 0.0;   ///< host cluster locating (overlapped)
  double schedule_s = 0.0;  ///< Eq. 15 predict + greedy assign on the host
  double pim_s = 0.0;       ///< PIM batch: transfers + barrier + launch
  double merge_s = 0.0;     ///< host-side per-query top-k merge
};

/// Aggregate serving report for one run.
struct ServeReport {
  std::size_t offered = 0;  ///< requests in the trace
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t degraded = 0;        ///< served on the cheap Q4 rung
  std::size_t slo_violations = 0;  ///< served but past the SLO

  double duration_s = 0.0;  ///< first arrival -> last completion
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double mean_queue_wait_ms = 0.0;

  double throughput_qps = 0.0;  ///< served / duration
  double goodput_qps = 0.0;     ///< served inside the SLO / duration
  double shed_rate = 0.0;       ///< shed / offered
  double timeout_rate = 0.0;    ///< slo_violations / offered
};

/// Fold a trace's records into the report; `slo_s` defines goodput/timeouts.
ServeReport summarize(const std::vector<RequestRecord>& records, double slo_s);

/// One periodic sample of the runtime's live state, taken on the virtual
/// clock every ServeParams::snapshot_period_s (sampled at event boundaries —
/// the clock only moves at arrivals, deadlines, and step completions).
struct MetricsSnapshot {
  double t_s = 0.0;                ///< virtual time of the sample
  std::size_t queue_depth = 0;     ///< requests waiting in the batcher
  std::size_t inflight = 0;        ///< launched, completion not yet observed
  std::size_t deferred_tasks = 0;  ///< backend's carried deferred work units
  double ewma_batch_s = 0.0;       ///< admission predictor's batch time
  std::size_t admitted = 0;        ///< cumulative admitted requests
  std::size_t shed = 0;            ///< cumulative shed requests
  std::size_t degraded = 0;        ///< cumulative degraded admissions (of admitted)
  double shed_rate = 0.0;          ///< shed / (admitted + shed) so far
  std::size_t batches = 0;         ///< cumulative backend steps
  /// Per-shard health when the backend is a cluster tier (src/cluster);
  /// empty for unsharded backends. The CSV writer emits one row per
  /// (sample, shard) with the base columns repeated; JSON nests a "shards"
  /// array per sample.
  std::vector<ShardHealth> shards;
};

/// Write snapshots as CSV (header + one row per sample).
void write_snapshots_csv(const std::vector<MetricsSnapshot>& snaps, std::ostream& out);
/// Write snapshots as a JSON array of objects (same fields as the CSV).
void write_snapshots_json(const std::vector<MetricsSnapshot>& snaps, std::ostream& out);
/// File variants; throw std::runtime_error if the file can't be opened. The
/// format follows the extension: ".csv" writes CSV, anything else JSON.
void write_snapshots_file(const std::vector<MetricsSnapshot>& snaps,
                          const std::string& path);

}  // namespace drim::serve

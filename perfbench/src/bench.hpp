#pragma once
// Shared pieces of the end-to-end benchmark: the fixed constants (read from
// the command line, which perfbench/run.py fills from perfbench/config.json),
// the metric sink, the seeded corpus, index set-up, and small statistics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend_factory.hpp"
#include "core/ivf.hpp"
#include "data/synthetic.hpp"
#include "serve/runtime.hpp"
#include "traced_backend.hpp"

namespace perfbench {

/// `--key value` constants. Every lookup is required: the benchmark has no
/// built-in defaults, so config.json is the single record of its settings.
class Constants {
 public:
  void set(const std::string& key, const std::string& value) { values_[key] = value; }
  double num(const std::string& key) const;
  std::size_t size(const std::string& key) const;
  std::vector<double> list(const std::string& key) const;

 private:
  const std::string& get(const std::string& key) const;
  std::map<std::string, std::string> values_;
};

/// Ordered name -> (value, unit) sink for one metric group.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one workload run produced.
struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;           ///< requests with a missing or wrong answer
  std::vector<std::string> errors;  ///< correctness violations (empty = correct)
  SpanLog spans;                    ///< traced replay spans (trace mode)
};

/// Per-invocation options (--seed, --seconds, --trace).
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seeded corpus: base vectors, learn set, fixed query pool.
struct Corpus {
  drim::SyntheticData data;
  double gen_seconds = 0.0;
};
Corpus make_corpus(const Constants& c, std::uint64_t seed);

/// Exact top-k over the base for the given pool rows; returns one list per
/// pool row (empty for rows not asked for).
std::vector<std::vector<drim::Neighbor>> exact_ground_truth(
    const Corpus& corpus, const std::vector<std::uint32_t>& rows, std::size_t k);

/// Copy the given pool rows into their own matrix (for offline search()).
drim::FloatMatrix gather_rows(const drim::FloatMatrix& pool,
                              const std::vector<std::uint32_t>& rows);

/// Sorted distinct query rows of a trace.
std::vector<std::uint32_t> distinct_rows(const std::vector<drim::serve::Request>& trace);

/// Index train + add with their wall times.
struct BuiltIndex {
  std::unique_ptr<drim::IvfPqIndex> index;
  double train_s = 0.0;
  double add_s = 0.0;
};
BuiltIndex build_index(const Constants& c, const Corpus& corpus);

/// Engine options for one platform; every other engine option stays at its
/// library default.
drim::DrimEngineOptions engine_options(const Constants& c, drim::PimPlatformKind platform,
                                       std::size_t num_dpus);

/// Serving parameters: library defaults except the fixed SLO and max-wait.
drim::serve::ServeParams serve_params(const Constants& c);

/// Open-loop Zipf trace at `qps` with `n` requests. Every `hot_set_requests`
/// consecutive requests map the Zipf ranks onto pool rows through a fresh
/// permutation drawn from `seed`, so one trace visits many hot sets.
std::vector<drim::serve::Request> zipf_trace(const Constants& c, std::size_t pool,
                                             double qps, std::size_t n,
                                             std::uint64_t seed);

/// Linear-interpolated percentile (0 for an empty sample).
double pct(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Current and peak resident set size in MB (from /proc/self/status).
double rss_mb();
double peak_rss_mb();

/// Row of the pool a payload pointer refers to (the serving runtime passes
/// pool rows by span), or -1 when it points elsewhere.
std::int64_t pool_row(const drim::FloatMatrix& pool, const float* query);

/// True when two neighbour lists are identical in ids and distances.
bool same_neighbours(const std::vector<drim::Neighbor>& a,
                     const std::vector<drim::Neighbor>& b);

/// True when two replays' per-request modeled outcomes are bit-identical.
bool same_records(const std::vector<drim::serve::RequestRecord>& a,
                  const std::vector<drim::serve::RequestRecord>& b);

/// Sum of self time (duration minus the union of child spans) over the
/// spans at `level`.
double self_time(const SpanLog& log, int level);

/// What one wrapped (checked) serving replay returned and what its wrapper
/// saw: the per-request records, each step's stats, each handle's record,
/// and the engine-level stats of every DRIM backend behind it.
struct Observed {
  drim::serve::ServeResult res;
  std::vector<drim::BackendStepStats> steps;
  std::vector<HandleRecord> handles;
  std::vector<std::pair<std::uint64_t, std::size_t>> publishes;
  double estimate = 0.0;  ///< the Eq. 15 estimate the runtime requested
  std::vector<drim::DrimSearchStats> engines;
  std::vector<drim::ShardHealth> health;
};
Observed observe(drim::serve::ServeResult res, const TracedBackend& wrapped,
                 const std::vector<const drim::DrimBackend*>& engines);

/// drim.* modeled step metrics from a step sequence; `estimate` is the Eq. 15
/// batch estimate the caller requested for a `max_batch`-query step.
void add_step_metrics(const std::vector<drim::BackendStepStats>& steps, double estimate,
                      std::size_t max_batch, Metrics& out);

/// serve.* and drim.* modeled per-layer metrics of a checked replay.
void add_serve_layer_metrics(const Constants& c, const Observed& replay, Metrics& out);

/// pim.* metrics summed over engines (one per shard); `requests` normalises
/// the per-query figures.
void add_pim_metrics(const std::vector<drim::DrimSearchStats>& engines,
                     std::size_t requests, Metrics& out);

/// backend.* host-wall metrics of the top-level wrapper (level 1 spans).
void add_backend_wall_metrics(const SpanLog& log, Metrics& out);

}  // namespace perfbench

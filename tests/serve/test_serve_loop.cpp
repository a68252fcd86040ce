// Randomized differential test of ServingRuntime's event loop (DESIGN.md §9).
// One loop serves every backend, keeping up to pipeline_depth() steps in
// flight. Over seeded configs at depths {1, 2}, with and without an update
// stream, it pins three contracts:
//  - the sim and analytic platforms serve bit-identical ServeResults
//    (records, report, steps, makespan, EWMA): they charge the same cost
//    tables, so the loop must see identical step stats;
//  - a 1-shard passthrough ClusterBackend serves bit-identically to the
//    plain DrimBackend it wraps;
//  - serve/batch step spans never exceed pipeline_depth() in flight, and at
//    depth 1 they never overlap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "core/mutable_index.hpp"
#include "obs/trace.hpp"
#include "serve/runtime.hpp"
#include "serve/update_workload.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using ServeLoopTest = ServeTest;

struct LoopConfig {
  std::size_t depth = 1;
  bool updates = false;
  bool enable_q4 = false;
  ServeParams params;
  std::vector<Request> trace;
  UpdateWorkloadParams update_params;
  std::size_t publish_every = 8;
  std::size_t relayout_every = 0;
  /// SLO in Eq. 15 full-batch estimates (set once the backend exists).
  double slo_batches = 4.0;
};

template <typename T>
T pick(std::mt19937_64& rng, const std::vector<T>& choices) {
  return choices[rng() % choices.size()];
}

LoopConfig draw_config(std::uint64_t seed, std::size_t pool_size) {
  std::mt19937_64 rng(seed * 7919 + 17);
  LoopConfig cfg;
  cfg.depth = seed % 2 == 0 ? 1 : 2;
  cfg.updates = (seed / 2) % 2 == 1;
  cfg.enable_q4 = rng() % 2 == 0;

  ServeParams& sp = cfg.params;
  sp.batcher.max_batch = pick<std::size_t>(rng, {1, 4, 8, 16, 32});
  sp.batcher.max_wait_s = pick<double>(rng, {0.0, 1e-4, 5e-4, 2e-3});
  sp.flush_every = pick<std::size_t>(rng, {0, 1, 2, 4});
  sp.admission.enabled = rng() % 3 != 0;
  cfg.slo_batches = pick<double>(rng, {1.5, 4.0, 20.0});
  sp.admission.degrade_to_q4 = cfg.enable_q4 && rng() % 2 == 0;

  WorkloadParams wp;
  wp.offered_qps = pick<double>(rng, {300.0, 2000.0, 8000.0, 30000.0});
  wp.num_requests = 30 + rng() % 30;
  wp.arrivals = rng() % 3 == 0 ? ArrivalProcess::kOnOff : ArrivalProcess::kPoisson;
  wp.query_skew = rng() % 2 == 0 ? 1.0 : 0.0;
  wp.k_choices = rng() % 2 == 0 ? std::vector<std::uint32_t>{10}
                                : std::vector<std::uint32_t>{5, 10, 20};
  wp.nprobe_choices = rng() % 2 == 0 ? std::vector<std::uint32_t>{8}
                                     : std::vector<std::uint32_t>{4, 8, 16};
  wp.seed = 101 + seed;
  cfg.trace = generate_workload(pool_size, wp);
  if (cfg.enable_q4) {
    for (Request& r : cfg.trace) {
      if (rng() % 4 == 0) r.precision = Precision::kQ4;
    }
  }

  cfg.update_params.update_rate = pick<double>(rng, {0.05, 0.2});
  cfg.update_params.insert_fraction = 0.5;
  cfg.update_params.delete_skew = 0.8;
  cfg.update_params.seed = 301 + seed;
  cfg.publish_every = pick<std::size_t>(rng, {1, 2, 4, 8});
  cfg.relayout_every = pick<std::size_t>(rng, {0, 0, 3});
  return cfg;
}

void expect_same_result(const ServeResult& a, const ServeResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestRecord& x = a.records[i];
    const RequestRecord& y = b.records[i];
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.degraded, y.degraded);
    EXPECT_EQ(x.request.precision, y.request.precision);
    EXPECT_EQ(x.results, y.results);
    EXPECT_EQ(x.done_s, y.done_s);
    EXPECT_EQ(x.latency_s, y.latency_s);
    EXPECT_EQ(x.queue_wait_s, y.queue_wait_s);
    EXPECT_EQ(x.host_cl_s, y.host_cl_s);
    EXPECT_EQ(x.schedule_s, y.schedule_s);
    EXPECT_EQ(x.pim_s, y.pim_s);
    EXPECT_EQ(x.merge_s, y.merge_s);
  }
  EXPECT_EQ(a.report.served, b.report.served);
  EXPECT_EQ(a.report.shed, b.report.shed);
  EXPECT_EQ(a.report.degraded, b.report.degraded);
  EXPECT_EQ(a.report.slo_violations, b.report.slo_violations);
  EXPECT_EQ(a.report.p50_ms, b.report.p50_ms);
  EXPECT_EQ(a.report.p99_ms, b.report.p99_ms);
  EXPECT_EQ(a.report.mean_queue_wait_ms, b.report.mean_queue_wait_ms);
  EXPECT_EQ(a.report.goodput_qps, b.report.goodput_qps);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.ewma_batch_s, b.ewma_batch_s);
}

struct StepSpan {
  double start_us = 0.0;
  double end_us = 0.0;
};

/// The serve/batch "step" spans, read back from the Chrome-trace export
/// (one event per line).
std::vector<StepSpan> step_spans(obs::TraceRecorder& trace) {
  const std::string tid =
      "\"tid\":" + std::to_string(trace.lane("serve/batch")) + ",";
  std::ostringstream out;
  trace.write_chrome_trace(out);
  std::istringstream in(out.str());
  std::vector<StepSpan> spans;
  for (std::string line; std::getline(in, line);) {
    if (line.find("{\"ph\":\"X\"") == std::string::npos ||
        line.find(tid) == std::string::npos ||
        line.find("\"name\":\"step\",\"cat\":\"serve\"") == std::string::npos) {
      continue;
    }
    double ts = 0.0;
    double dur = 0.0;
    const auto at_ts = line.find("\"ts\":");
    const auto at_dur = line.find("\"dur\":");
    EXPECT_EQ(std::sscanf(line.c_str() + at_ts, "\"ts\":%lf", &ts), 1);
    EXPECT_EQ(std::sscanf(line.c_str() + at_dur, "\"dur\":%lf", &dur), 1);
    spans.push_back({ts, ts + dur});
  }
  return spans;
}

TEST_F(ServeLoopTest, RandomizedConfigsAgreeAcrossPlatformsAndPassthrough) {
  const FloatMatrix insert_pool = data_->base.to_float();
  std::size_t pipelined_overlaps = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    LoopConfig cfg = draw_config(seed, data_->queries.count());
    SCOPED_TRACE("seed " + std::to_string(seed) + " depth " +
                 std::to_string(cfg.depth) + (cfg.updates ? " updates" : " read-only"));
    UpdateTrace updates;
    if (cfg.updates) {
      updates = generate_update_trace(cfg.trace, insert_pool, index_->ntotal(),
                                      cfg.update_params);
    }

    auto options = [&](PimPlatformKind platform) {
      DrimEngineOptions o = default_options();
      o.platform = platform;
      o.pipeline_depth = cfg.depth;
      o.enable_q4 = cfg.enable_q4;
      return o;
    };
    // Each run gets its own writer so every backend sees the same update
    // history from the same base index.
    auto serve = [&](AnnBackend& backend, obs::TraceRecorder* trace) {
      ServingRuntime runtime(backend, data_->queries, cfg.params);
      IndexWriter writer(*index_);
      UpdateStream stream;
      if (cfg.updates) {
        stream.trace = &updates;
        stream.writer = &writer;
        stream.publish_every_batches = cfg.publish_every;
        stream.relayout_every_batches = cfg.relayout_every;
        runtime.set_update_stream(&stream);
      }
      runtime.set_trace(trace);
      return runtime.run(cfg.trace);
    };

    DrimBackend sim(*index_, data_->learn, options(PimPlatformKind::kSim));
    DrimBackend analytic(*index_, data_->learn, options(PimPlatformKind::kAnalytic));
    ASSERT_EQ(sim.pipeline_depth(), cfg.depth);
    cfg.params.admission.slo_s =
        cfg.slo_batches * sim.estimate_batch_seconds(cfg.params.batcher.max_batch, 16, 20);
    obs::TraceRecorder trace;
    const ServeResult on_sim = serve(sim, &trace);
    const ServeResult on_analytic = serve(analytic, nullptr);
    EXPECT_GT(on_sim.report.served, 0u);
    {
      SCOPED_TRACE("sim vs analytic");
      expect_same_result(on_sim, on_analytic);
    }

    // The passthrough alternates platforms every four seeds, so both
    // platforms meet both depths with and without updates; it is compared
    // against the plain backend on the same platform.
    const bool cluster_on_sim = (seed / 4) % 2 == 0;
    cluster::ClusterOptions copts;
    copts.num_shards = 1;
    const auto passthrough = cluster::make_cluster_backend(
        BackendKind::kDrim, *index_, data_->learn,
        options(cluster_on_sim ? PimPlatformKind::kSim : PimPlatformKind::kAnalytic),
        copts);
    ASSERT_EQ(passthrough->pipeline_depth(), cfg.depth);
    {
      SCOPED_TRACE("1-shard cluster vs plain backend");
      expect_same_result(serve(*passthrough, nullptr),
                         cluster_on_sim ? on_sim : on_analytic);
    }

    // Step spans: at each launch, at most `depth` steps (this one included)
    // are still running; at depth 1 consecutive steps never overlap.
    const std::vector<StepSpan> spans = step_spans(trace);
    ASSERT_EQ(spans.size(), on_sim.batches);
    constexpr double kTolUs = 1e-6;  // microsecond export rounding
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::size_t running = 0;
      for (std::size_t j = 0; j <= i; ++j) {
        if (spans[j].end_us > spans[i].start_us + kTolUs) ++running;
      }
      EXPECT_LE(running, cfg.depth) << "step " << i;
      if (running > 1) ++pipelined_overlaps;
    }
  }
  // The depth-2 configs really overlap steps, so the window bound is live.
  EXPECT_GT(pipelined_overlaps, 0u);
}

/// Deterministic backend for the install-admission test: every step runs all
/// its fresh queries to completion in 1 ms, and a snapshot install costs a
/// full second of modeled time.
class SlowInstallBackend : public AnnBackend {
 public:
  static constexpr double kStepSeconds = 1e-3;
  static constexpr double kInstallSeconds = 1.0;

  std::string name() const override { return "slow-install"; }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix&, std::size_t,
                                            std::size_t) override {
    return {};
  }
  void reset_stream() override {
    pending_.clear();
    done_.clear();
    next_ = 0;
  }
  std::uint32_t enqueue(std::span<const float>, std::size_t, std::size_t) override {
    pending_.push_back(next_);
    return next_++;
  }
  BackendStepStats step(std::size_t max_queries, bool) override {
    const std::size_t n = max_queries == 0 ? pending_.size()
                                           : std::min(pending_.size(), max_queries);
    done_.insert(done_.end(), pending_.begin(), pending_.begin() + static_cast<long>(n));
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<long>(n));
    BackendStepStats s;
    s.fresh_queries = n;
    s.tasks = n;
    s.exec_seconds = kStepSeconds;
    s.step_seconds = kStepSeconds;
    return s;
  }
  bool has_deferred() const override { return false; }
  bool finished(std::uint32_t handle) const override {
    return std::find(done_.begin(), done_.end(), handle) != done_.end();
  }
  std::vector<Neighbor> take_results(std::uint32_t handle) override {
    done_.erase(std::find(done_.begin(), done_.end(), handle));
    return std::vector<Neighbor>(10);
  }
  std::size_t stream_depth() const override { return pending_.size(); }
  double estimate_batch_seconds(std::size_t, std::size_t, std::size_t) const override {
    return kStepSeconds;
  }
  BackendStats stats() const override { return {}; }
  bool supports_updates() const override { return true; }
  double stage_snapshot(const IndexSnapshot&, const PublishDelta&) override {
    return kInstallSeconds;
  }

 private:
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> done_;
  std::uint32_t next_ = 0;
};

TEST_F(ServeLoopTest, ArrivalDuringInstallJoinsTheFirstBatchAfterIt) {
  // r0 + r1 fill a batch at t = 0. The publish that follows runs at the
  // step's completion (1 ms) and holds the clock for 1 s. r2 arrives while
  // the step runs, r3 halfway through the install. Both are waiting when
  // the install ends, so the next batch must carry both — r3 must not miss
  // it and wait behind a batch launched without it.
  std::vector<Request> trace(4);
  const double arrivals[] = {0.0, 0.0, 5e-4, 0.5};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = i;
    trace[i].arrival_s = arrivals[i];
    trace[i].query = static_cast<std::uint32_t>(i);
  }
  ServeParams sp;
  sp.batcher.max_batch = 2;
  sp.batcher.max_wait_s = 1e-3;
  sp.admission.enabled = false;
  sp.flush_every = 0;

  // One insert at t = 0 makes the writer dirty for the first publish.
  UpdateTrace updates;
  updates.insert_vectors = FloatMatrix(1, data_->queries.dim());
  std::copy(data_->queries.row(0).begin(), data_->queries.row(0).end(),
            updates.insert_vectors.row(0).begin());
  updates.ops.push_back({0.0, UpdateKind::kInsert, 0});
  IndexWriter writer(*index_);
  UpdateStream stream;
  stream.trace = &updates;
  stream.writer = &writer;
  stream.publish_every_batches = 1;

  SlowInstallBackend backend;
  ServingRuntime runtime(backend, data_->queries, sp);
  runtime.set_update_stream(&stream);
  const ServeResult res = runtime.run(trace);

  ASSERT_EQ(stream.publishes, 1u);
  const double install_end =
      SlowInstallBackend::kStepSeconds + SlowInstallBackend::kInstallSeconds;
  EXPECT_EQ(res.batches, 2u) << "r2 and r3 share the batch after the install";
  EXPECT_EQ(res.records[2].queue_wait_s, install_end - arrivals[2]);
  EXPECT_EQ(res.records[3].queue_wait_s, install_end - arrivals[3]);
  EXPECT_EQ(res.records[3].done_s, res.records[2].done_s);
  EXPECT_EQ(res.records[3].done_s, install_end + SlowInstallBackend::kStepSeconds);
}

}  // namespace
}  // namespace drim::serve

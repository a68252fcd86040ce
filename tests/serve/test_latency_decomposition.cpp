// Per-request latency decomposition and the work-conserving deferred drain.
//
// A recording wrapper sits between the serving runtime and a real backend
// and logs, per step, the launch instant the runtime announced
// (set_step_start) and the requests that step consumed and completed. From
// that independent log the tests check, on the drim, cluster and cpu
// backends, that every served record splits exactly as
//   latency_s = queue_wait_s + deferred_s + (completing step's span)
// with steps_spanned counting the steps in between; and that on a low-rate
// trace a deferred task drains as soon as the pipe has room, not at the
// next arrival.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "backend/cpu_backend.hpp"
#include "backend/drim_backend.hpp"
#include "cluster/cluster_backend.hpp"
#include "serve/runtime.hpp"
#include "serve_test_data.hpp"

namespace drim::serve {
namespace {

using LatencyDecompositionTest = ServeTest;

/// Forwards everything to `inner` and records the step each enqueued query
/// was consumed by and finished in, plus every step's launch instant.
class StepRecorder : public AnnBackend {
 public:
  explicit StepRecorder(AnnBackend& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::vector<std::vector<Neighbor>> search(const FloatMatrix& q, std::size_t k,
                                            std::size_t nprobe) override {
    return inner_.search(q, k, nprobe);
  }
  void reset_stream() override {
    inner_.reset_stream();
    handles_.clear();
    consume_step_.clear();
    finish_step_.clear();
    launches_.clear();
  }
  std::uint32_t enqueue(std::span<const float> query, std::size_t k,
                        std::size_t nprobe) override {
    return track(inner_.enqueue(query, k, nprobe));
  }
  std::uint32_t enqueue(std::span<const float> query, std::size_t k, std::size_t nprobe,
                        Precision precision) override {
    return track(inner_.enqueue(query, k, nprobe, precision));
  }
  BackendStepStats step(std::size_t max_queries, bool flush) override {
    const BackendStepStats s = inner_.step(max_queries, flush);
    const long index = static_cast<long>(launches_.size());
    launches_.push_back(launch_);
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      if (consume_step_[i] < 0) consume_step_[i] = index;
      if (finish_step_[i] < 0 && inner_.finished(handles_[i])) finish_step_[i] = index;
    }
    return s;
  }
  std::size_t pipeline_depth() const override { return inner_.pipeline_depth(); }
  void set_step_start(double t) override {
    launch_ = t;
    inner_.set_step_start(t);
  }
  bool has_deferred() const override { return inner_.has_deferred(); }
  std::size_t deferred_count() const override { return inner_.deferred_count(); }
  bool finished(std::uint32_t handle) const override { return inner_.finished(handle); }
  std::vector<Neighbor> take_results(std::uint32_t handle) override {
    return inner_.take_results(handle);
  }
  std::size_t stream_depth() const override { return inner_.stream_depth(); }
  double estimate_batch_seconds(std::size_t n, std::size_t nprobe,
                                std::size_t k) const override {
    return inner_.estimate_batch_seconds(n, nprobe, k);
  }
  BackendStats stats() const override { return inner_.stats(); }

  /// Per enqueued query (in enqueue order): the step that consumed it and
  /// the step that finished it; and every step's launch instant.
  const std::vector<long>& consume_step() const { return consume_step_; }
  const std::vector<long>& finish_step() const { return finish_step_; }
  const std::vector<double>& launches() const { return launches_; }

 private:
  std::uint32_t track(std::uint32_t handle) {
    handles_.push_back(handle);
    consume_step_.push_back(-1);
    finish_step_.push_back(-1);
    return handle;
  }

  AnnBackend& inner_;
  double launch_ = 0.0;
  std::vector<std::uint32_t> handles_;
  std::vector<long> consume_step_;
  std::vector<long> finish_step_;
  std::vector<double> launches_;
};

/// Serve `trace` through the recorder with admission off (every request is
/// enqueued, in trace order) and check every record's decomposition against
/// the recorder's log. Returns the number of requests that spanned > 1 step.
std::size_t check_decomposition(AnnBackend& backend, const FloatMatrix& pool,
                                const ServeParams& params,
                                const std::vector<Request>& trace) {
  StepRecorder rec(backend);
  ServingRuntime runtime(rec, pool, params);
  const ServeResult res = runtime.run(trace);
  EXPECT_EQ(res.report.served, trace.size());
  EXPECT_EQ(rec.consume_step().size(), trace.size());
  std::size_t multi = 0;
  for (std::size_t i = 0; i < res.records.size() && i < rec.consume_step().size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const RequestRecord& r = res.records[i];
    const long first = rec.consume_step()[i];
    const long last = rec.finish_step()[i];
    EXPECT_GE(first, 0);
    EXPECT_GE(last, first);
    if (first < 0 || last < first) continue;
    const double first_launch = rec.launches()[static_cast<std::size_t>(first)];
    const double last_launch = rec.launches()[static_cast<std::size_t>(last)];
    EXPECT_EQ(r.steps_spanned, static_cast<std::size_t>(last - first + 1));
    EXPECT_DOUBLE_EQ(r.request.arrival_s + r.queue_wait_s, first_launch);
    EXPECT_NEAR(r.deferred_s, last_launch - first_launch, 1e-12);
    const double own_span = r.done_s - last_launch;
    EXPECT_GT(own_span, 0.0);
    EXPECT_NEAR(r.latency_s - r.queue_wait_s - r.deferred_s, own_span, 1e-12);
    if (r.steps_spanned > 1) ++multi;
  }
  return multi;
}

std::vector<Request> zipf_trace(std::size_t pool, double qps, std::size_t n) {
  WorkloadParams wp;
  wp.offered_qps = qps;
  wp.num_requests = n;
  wp.query_skew = 1.0;
  wp.k_choices = {10};
  wp.nprobe_choices = {8, 16};
  wp.seed = 7;
  return generate_workload(pool, wp);
}

ServeParams decomposition_params() {
  ServeParams sp;
  sp.batcher.max_batch = 8;
  sp.batcher.max_wait_s = 2e-4;
  sp.admission.enabled = false;
  return sp;
}

TEST_F(LatencyDecompositionTest, ComponentsSumToLatencyOnDrimBackend) {
  for (const std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    DrimEngineOptions o = default_options();
    o.platform = PimPlatformKind::kAnalytic;
    o.pipeline_depth = depth;
    o.scheduler.filter_slack = 0.0;  // defer eagerly so deferred_s is exercised
    DrimBackend backend(*index_, data_->learn, o);
    const auto trace = zipf_trace(data_->queries.count(), 4000.0, 96);
    EXPECT_GT(check_decomposition(backend, data_->queries, decomposition_params(), trace),
              0u)
        << "no request was deferred; the deferred_s term went unchecked";
  }
}

TEST_F(LatencyDecompositionTest, ComponentsSumToLatencyOnClusterBackend) {
  DrimEngineOptions o = default_options();
  o.platform = PimPlatformKind::kAnalytic;
  o.scheduler.filter_slack = 0.0;
  cluster::ClusterOptions copts;
  copts.num_shards = 2;
  const auto backend = cluster::make_cluster_backend(BackendKind::kDrim, *index_,
                                                     data_->learn, o, copts);
  const auto trace = zipf_trace(data_->queries.count(), 4000.0, 96);
  EXPECT_GT(check_decomposition(*backend, data_->queries, decomposition_params(), trace),
            0u)
      << "no request was deferred; the deferred_s term went unchecked";
}

TEST_F(LatencyDecompositionTest, ComponentsSumToLatencyOnCpuBackend) {
  CpuBackend backend(*index_);
  const auto trace = zipf_trace(data_->queries.count(), 4000.0, 96);
  // The CPU baseline never defers: every request completes in its first step.
  EXPECT_EQ(check_decomposition(backend, data_->queries, decomposition_params(), trace),
            0u);
}

TEST_F(LatencyDecompositionTest, DeferredTaskDrainsBeforeTheNextArrival) {
  // Arrivals 50 ms apart, far wider than a step. Each request is its own
  // batch; the filter (slack 0) defers part of most of them. The runtime must
  // drain those tasks as soon as the pipe has room — at depth 1 when the
  // step completes, at depth 2 right away — not when the next arrival
  // launches a batch 50 ms later. No periodic flush, so only the drain can
  // finish them early.
  constexpr double kGap = 0.05;
  std::vector<Request> trace(12);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = i;
    trace[i].arrival_s = static_cast<double>(i) * kGap;
    trace[i].query = static_cast<std::uint32_t>(i % data_->queries.count());
    trace[i].nprobe = 16;
  }
  ServeParams sp;
  sp.batcher.max_batch = 1;
  sp.batcher.max_wait_s = 0.0;
  sp.admission.enabled = false;
  sp.flush_every = 0;

  for (const std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    DrimEngineOptions o = default_options();
    o.platform = PimPlatformKind::kAnalytic;
    o.pipeline_depth = depth;
    o.scheduler.filter_slack = 0.0;
    DrimBackend backend(*index_, data_->learn, o);
    StepRecorder rec(backend);
    ServingRuntime runtime(rec, data_->queries, sp);
    const ServeResult res = runtime.run(trace);

    std::size_t deferred = 0;
    for (std::size_t i = 0; i < res.records.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      const RequestRecord& r = res.records[i];
      ASSERT_FALSE(r.shed);
      EXPECT_LT(r.latency_s, kGap) << "waited for the next arrival";
      if (r.steps_spanned == 1) continue;
      ++deferred;
      EXPECT_EQ(r.steps_spanned, 2u) << "one drain step finishes the request";
      const long first = rec.consume_step()[i];
      const double first_launch = rec.launches()[static_cast<std::size_t>(first)];
      const double drain_launch = rec.launches()[static_cast<std::size_t>(first + 1)];
      if (depth == 1) {
        // The drain launches when the first step completes: the first
        // step's span is exactly the deferral.
        EXPECT_GT(r.deferred_s, 0.0);
        EXPECT_NEAR(drain_launch - first_launch, r.deferred_s, 1e-12);
      } else {
        EXPECT_EQ(r.deferred_s, 0.0) << "the pipe had room at the first launch";
      }
    }
    EXPECT_GT(deferred, 0u) << "the filter deferred nothing; the drain went untested";
  }
}

}  // namespace
}  // namespace drim::serve

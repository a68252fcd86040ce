// estimate_batch_seconds() accuracy. The Eq. 15 estimate dry-runs the
// engine's scheduler over batch-sized chunks of the construction-time sample
// and prices the slowest DPU of the median chunk, so it sees both layout skew
// and task granularity (at paper scale a batch has fewer tasks than DPUs).
// It still ignores staging conflicts and the carried-task mix of a real
// stream, so the tests pin a ratio band, estimate / measured in [0.5, 2]:
//  - 16 DPUs (tasks >> DPUs), across nprobe/k/batch size, on both
//    platforms, against the mean batch of an offline search();
//  - 2530 DPUs (the paper's array, tasks < DPUs) at batch 8, 32 and 128,
//    against the median of the non-final batches (the final batch is a
//    filter-off flush that drains everything carried).
// The serving layer's admission controller seeds its queue-delay predictor
// with this estimate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"

namespace drim {
namespace {

class EstimateBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    // 9 batches of the largest paper-scale batch (8 non-final + the final
    // flush); the 16-DPU sweep uses the first 64 (divisible by its batches).
    spec.num_queries = 9 * 128;
    spec.num_learn = 2500;
    spec.num_components = 48;
    data_ = new SyntheticData(make_sift_like(spec));
    small_queries_ = new FloatMatrix(64, data_->queries.dim());
    for (std::size_t q = 0; q < small_queries_->count(); ++q) {
      const auto row = data_->queries.row(q);
      std::copy(row.begin(), row.end(), small_queries_->row(q).begin());
    }

    IvfPqParams p;
    p.nlist = 48;
    p.pq.m = 16;
    p.pq.cb_entries = 32;
    index_ = new IvfPqIndex();
    index_->train(data_->learn, p);
    index_->add(data_->base);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete small_queries_;
    delete index_;
  }

  static inline SyntheticData* data_ = nullptr;
  static inline FloatMatrix* small_queries_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

struct Sweep {
  std::size_t nprobe;
  std::size_t k;
  std::size_t batch;
};

TEST_F(EstimateBatchTest, EstimateWithinBandOfMeasuredOnBothPlatforms) {
  const Sweep sweeps[] = {{4, 10, 16}, {8, 10, 32}, {8, 20, 16}, {16, 10, 64}};
  const PimPlatformKind platforms[] = {PimPlatformKind::kSim,
                                       PimPlatformKind::kAnalytic};
  for (PimPlatformKind platform : platforms) {
    for (const Sweep& s : sweeps) {
      SCOPED_TRACE(std::string(pim_platform_name(platform)) +
                   " nprobe=" + std::to_string(s.nprobe) +
                   " k=" + std::to_string(s.k) +
                   " batch=" + std::to_string(s.batch));
      DrimEngineOptions o;
      o.pim.num_dpus = 16;
      o.layout.split_threshold = 128;
      o.heat_nprobe = s.nprobe;
      o.batch_size = s.batch;
      o.platform = platform;
      DrimAnnEngine engine(*index_, data_->learn, o);

      DrimSearchStats stats;
      engine.search(*small_queries_, s.k, s.nprobe, &stats);
      ASSERT_EQ(stats.batch_seconds.size(),
                small_queries_->count() / s.batch);  // nq divisible by batch
      const double measured = mean(stats.batch_seconds);
      ASSERT_GT(measured, 0.0);

      const double est = engine.estimate_batch_seconds(s.batch, s.nprobe, s.k);
      ASSERT_GT(est, 0.0);
      const double ratio = est / measured;
      std::printf("16 DPUs %s nprobe %zu k %zu batch %zu: estimate / measured %.3f\n",
                  pim_platform_name(platform).c_str(), s.nprobe, s.k, s.batch, ratio);
      EXPECT_GE(ratio, 0.5);
      EXPECT_LE(ratio, 2.0);
    }
  }
}

TEST_F(EstimateBatchTest, EstimateWithinBandAtPaperScale) {
  // 2530 DPUs: a batch's tasks land on a few hundred DPUs at most, so a
  // per-DPU-mean estimate would be an order of magnitude low. The analytic
  // platform charges the same cost tables as the sim at this scale.
  constexpr std::size_t kNprobe = 8;
  constexpr std::size_t kK = 10;
  for (const std::size_t batch : {8u, 32u, 128u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    DrimEngineOptions o;
    o.pim.num_dpus = 2530;
    o.layout.split_threshold = 128;
    o.heat_nprobe = kNprobe;
    o.batch_size = batch;
    o.platform = PimPlatformKind::kAnalytic;
    DrimAnnEngine engine(*index_, data_->learn, o);

    DrimSearchStats stats;
    engine.search(data_->queries, kK, kNprobe, &stats);
    ASSERT_GE(stats.batch_seconds.size(), 9u) << "at least 8 non-final batches";
    std::vector<double> non_final(stats.batch_seconds.begin(),
                                  stats.batch_seconds.end() - 1);
    std::nth_element(non_final.begin(), non_final.begin() + non_final.size() / 2,
                     non_final.end());
    const double measured = non_final[non_final.size() / 2];
    ASSERT_GT(measured, 0.0);

    const double est = engine.estimate_batch_seconds(batch, kNprobe, kK);
    const double ratio = est / measured;
    std::printf("2530 DPUs batch %zu: estimate %.4f ms / median %.4f ms = %.3f\n",
                batch, est * 1e3, measured * 1e3, ratio);
    EXPECT_GE(ratio, 0.5);
    EXPECT_LE(ratio, 2.0);
  }
}

TEST_F(EstimateBatchTest, EstimateScalesWithBatchAndNprobe) {
  DrimEngineOptions o;
  o.pim.num_dpus = 16;
  o.layout.split_threshold = 128;
  o.heat_nprobe = 8;
  DrimAnnEngine engine(*index_, data_->learn, o);
  // More queries or more probes mean more tasks; the open-loop estimate must
  // be monotone in both.
  EXPECT_GT(engine.estimate_batch_seconds(64, 8, 10),
            engine.estimate_batch_seconds(16, 8, 10));
  EXPECT_GT(engine.estimate_batch_seconds(32, 16, 10),
            engine.estimate_batch_seconds(32, 4, 10));
  EXPECT_EQ(engine.estimate_batch_seconds(0, 8, 10), 0.0);
}

}  // namespace
}  // namespace drim

// Paper-scale byte-level simulation: the sim platform at the paper's 2530
// DPUs and the default pipeline depth 2. Each DPU's 64 MB MRAM is backed in
// Mram::kPageBytes pages on first write, so host memory tracks the bytes the
// engine actually stages, not the ~32 MB offset of the second ping/pong
// staging slot. The run must still be bit-identical to the analytic platform
// (DMA cost depends only on size, never on address).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "drim/kernels.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

constexpr std::size_t kDpus = 2530;
constexpr std::size_t kDepth = 2;
constexpr std::size_t kK = 10;
constexpr std::size_t kNprobe = 8;

std::size_t pages_for(std::size_t bytes) {
  return (bytes + Mram::kPageBytes - 1) / Mram::kPageBytes;
}

TEST(PaperScaleSim, PagedMramTracksStagedBytesAndMatchesAnalytic) {
  SyntheticSpec spec;
  spec.num_base = 4000;
  spec.num_queries = 64;
  spec.num_learn = 2000;
  spec.num_components = 32;
  const SyntheticData data = make_sift_like(spec);
  IvfPqParams params;
  params.nlist = 64;
  params.pq.m = 16;
  params.pq.cb_entries = 32;
  IvfPqIndex index;
  index.train(data.learn, params);
  index.add(data.base);

  DrimEngineOptions opts;
  opts.pim.num_dpus = kDpus;
  opts.pipeline_depth = kDepth;
  opts.heat_nprobe = kNprobe;
  opts.batch_size = 16;  // four steps: slots 0, 1, 0, 1

  opts.platform = PimPlatformKind::kSim;
  DrimAnnEngine sim(index, data.learn, opts);
  opts.platform = PimPlatformKind::kAnalytic;
  DrimAnnEngine analytic(index, data.learn, opts);

  DrimSearchStats ss, as;
  const auto sim_results = sim.search(data.queries, kK, kNprobe, &ss);
  const auto analytic_results = analytic.search(data.queries, kK, kNprobe, &as);

  ASSERT_EQ(sim_results.size(), analytic_results.size());
  for (std::size_t q = 0; q < sim_results.size(); ++q) {
    ASSERT_EQ(sim_results[q].size(), analytic_results[q].size()) << "query " << q;
    for (std::size_t i = 0; i < sim_results[q].size(); ++i) {
      EXPECT_EQ(sim_results[q][i].id, analytic_results[q][i].id) << q << "/" << i;
      EXPECT_EQ(sim_results[q][i].dist, analytic_results[q][i].dist) << q << "/" << i;
    }
  }
  ASSERT_GE(ss.batch_seconds.size(), kDepth);
  ASSERT_EQ(ss.batch_seconds, as.batch_seconds);  // bit-identical per step
  EXPECT_EQ(ss.total_seconds, as.total_seconds);

  const auto& platform = dynamic_cast<const SimPimPlatform&>(sim.platform());
  const std::size_t dim = sim.data().dim();

  // Worst case of one step's staged footprint on one DPU: every query of the
  // search staged there, each with all of its tasks' k-hit output blocks.
  const std::size_t nq = data.queries.count();
  const std::size_t step_staged =
      ((nq * dim * 2 + 7) & ~std::size_t{7}) + nq * kNprobe * kK * sizeof(KernelHit);
  // A slot need not start on a page boundary, so it may touch one more page
  // than its rounded size.
  const std::size_t slot_pages = pages_for(step_staged) + 1;

  std::size_t total = 0;
  std::size_t max_used = 0;
  for (std::size_t d = 0; d < kDpus; ++d) {
    const std::size_t used = platform.mram_used(d);
    const std::size_t backed = platform.dpu(d).mram().backed_bytes();
    const std::size_t bound = (pages_for(used) + kDepth * slot_pages) * Mram::kPageBytes;
    ASSERT_LE(backed, bound) << "DPU " << d << " (static " << used << " bytes)";
    total += backed;
    max_used = std::max(max_used, used);
  }
  EXPECT_EQ(total, platform.mram_backed_bytes());
  const std::size_t logical = kDpus * opts.pim.mram_bytes;  // ~158 GiB
  EXPECT_LT(total, std::size_t{1} << 30);
  EXPECT_LT(total, logical / 100);
  EXPECT_EQ(analytic.platform().mram_backed_bytes(), 0u);

  // Slot 1 really was staged: the engine puts it at the 8-aligned top of
  // the static data plus one slot stride (half of the remaining MRAM).
  const std::size_t staging_base = (max_used + 7) & ~std::size_t{7};
  const std::size_t stride = ((opts.pim.mram_bytes - staging_base) / kDepth) &
                             ~std::size_t{7};
  const std::size_t slot1 = staging_base + stride;
  ASSERT_GT(slot1, opts.pim.mram_bytes / 4);
  bool slot1_written = false;
  std::vector<std::uint8_t> first_query(dim * 2);
  for (std::size_t d = 0; d < kDpus && !slot1_written; ++d) {
    platform.dpu(d).mram().read(slot1, first_query);
    slot1_written = std::any_of(first_query.begin(), first_query.end(),
                                [](std::uint8_t b) { return b != 0; });
  }
  EXPECT_TRUE(slot1_written);
}

}  // namespace
}  // namespace drim

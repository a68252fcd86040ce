// Randomized differential test of the DPU search-kernel paths, driven only
// through the stable engine API. Each seeded config draws a fusion width,
// the precision rung, tombstones (IndexWriter::erase + publish), wide codes,
// the square-LUT ablation, CL placement, pipeline depth and k (sometimes
// above the smallest shard's size), then checks two contracts:
//
//  * sim and analytic are charge twins at every width: bit-identical
//    neighbours, every batch_seconds entry, every per-phase counter and
//    dc_bytes_saved;
//  * every fusion width returns the width-1 neighbours.
//
// Together these cover tombstones under fusion on both platforms and wide
// codes on the analytic platform.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/mutable_index.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "pim/pim_platform.hpp"

namespace drim {
namespace {

constexpr std::size_t kNumConfigs = 16;

struct PathConfig {
  std::size_t fuse_width = 1;
  bool q4 = false;
  bool tombstones = false;
  bool wide = false;  ///< cb 300 / m 8 index (2-byte codes, no q4 tables)
  bool square_lut = true;
  bool cl_on_pim = false;
  std::size_t depth = 2;
  bool k_above_smallest_shard = false;
  std::size_t k = 10;
  std::size_t nprobe = 8;
  std::uint64_t seed = 0;

  std::string describe() const {
    return "seed " + std::to_string(seed) + " width " + std::to_string(fuse_width) +
           (q4 ? " q4" : " full") + (tombstones ? " tombstones" : "") +
           (wide ? " wide" : "") + (square_lut ? "" : " no-sqlut") +
           (cl_on_pim ? " cl-on-pim" : "") + " depth " + std::to_string(depth) +
           (k_above_smallest_shard ? " k>min-shard" : " k " + std::to_string(k)) +
           " nprobe " + std::to_string(nprobe);
  }
};

/// Config i of the grid: every axis drawn from a per-config seeded stream.
PathConfig draw_config(std::size_t i) {
  PathConfig c;
  c.seed = 0x5EED0000u + i;
  Rng rng(c.seed);
  static constexpr std::size_t kWidths[] = {1, 2, 4};
  c.fuse_width = kWidths[rng.next_below(3)];
  c.q4 = rng.next_below(2) == 1;
  c.tombstones = rng.next_below(2) == 1;
  c.wide = rng.next_below(4) == 0;
  c.square_lut = rng.next_below(3) != 0;
  c.cl_on_pim = rng.next_below(3) == 0;
  c.depth = rng.next_below(2) == 0 ? 1 : 2;
  c.k_above_smallest_shard = rng.next_below(4) == 0;
  c.k = 1 + rng.next_below(16);
  c.nprobe = 4 + rng.next_below(9);
  return c;
}

struct RunResult {
  std::vector<std::vector<Neighbor>> neighbors;
  DrimSearchStats stats;
};

class KernelPathsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 4000;
    spec.num_queries = 32;
    spec.num_learn = 2000;
    spec.dim = 64;
    spec.num_components = 32;
    data_ = new SyntheticData(make_sift_like(spec));

    IvfPqParams narrow;
    narrow.nlist = 32;
    narrow.pq.m = 16;
    narrow.pq.cb_entries = 32;
    narrow_ = new IvfPqIndex();
    narrow_->train(data_->learn, narrow);
    narrow_->add(data_->base);

    IvfPqParams wide = narrow;
    wide.pq.m = 8;
    wide.pq.cb_entries = 300;
    wide_ = new IvfPqIndex();
    wide_->train(data_->learn, wide);
    wide_->add(data_->base);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete narrow_;
    delete wide_;
  }

  static DrimEngineOptions options(const PathConfig& c, PimPlatformKind platform,
                                   std::size_t fuse_width) {
    DrimEngineOptions o;
    o.pim.num_dpus = 12;
    o.layout.split_threshold = 96;
    o.heat_nprobe = 8;
    o.batch_size = 12;  // several steps per search
    o.platform = platform;
    o.pipeline_depth = c.depth;
    o.fuse_width = fuse_width;
    o.enable_q4 = c.q4;
    o.use_square_lut = c.square_lut;
    o.cl_on_pim = c.cl_on_pim;
    return o;
  }

  static RunResult run(DrimAnnEngine& engine, const PathConfig& c, std::size_t k) {
    RunResult r;
    r.neighbors = engine.search(data_->queries, k, c.nprobe, &r.stats,
                                c.q4 ? Precision::kQ4 : Precision::kFull);
    return r;
  }

  static void expect_same_neighbors(const std::vector<std::vector<Neighbor>>& a,
                                    const std::vector<std::vector<Neighbor>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t q = 0; q < a.size(); ++q) {
      ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
      for (std::size_t i = 0; i < a[q].size(); ++i) {
        EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
        EXPECT_EQ(a[q][i].dist, b[q][i].dist) << "query " << q << " rank " << i;
      }
    }
  }

  /// Sim and analytic at one width: results, timings and every counter.
  static void expect_charge_twins(const RunResult& sim, const RunResult& analytic) {
    expect_same_neighbors(sim.neighbors, analytic.neighbors);
    const DrimSearchStats& s = sim.stats;
    const DrimSearchStats& a = analytic.stats;
    ASSERT_EQ(s.batch_seconds.size(), a.batch_seconds.size());
    for (std::size_t b = 0; b < s.batch_seconds.size(); ++b) {
      EXPECT_EQ(s.batch_seconds[b], a.batch_seconds[b]) << "batch " << b;
    }
    EXPECT_EQ(s.total_seconds, a.total_seconds);
    EXPECT_EQ(s.transfer_in_seconds, a.transfer_in_seconds);
    EXPECT_EQ(s.transfer_out_seconds, a.transfer_out_seconds);
    EXPECT_EQ(s.dpu_busy_seconds, a.dpu_busy_seconds);
    EXPECT_EQ(s.host_rerank_seconds, a.host_rerank_seconds);
    EXPECT_EQ(s.tasks, a.tasks);
    EXPECT_EQ(s.batches, a.batches);
    EXPECT_EQ(s.dc_bytes_saved, a.dc_bytes_saved);
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      SCOPED_TRACE(phase_name(static_cast<Phase>(p)));
      const PhaseCounters& sp = s.counters.phases[p];
      const PhaseCounters& ap = a.counters.phases[p];
      EXPECT_EQ(sp.instr_cycles, ap.instr_cycles);
      EXPECT_EQ(sp.dma_cycles, ap.dma_cycles);
      EXPECT_EQ(sp.mram_bytes_read, ap.mram_bytes_read);
      EXPECT_EQ(sp.mram_bytes_written, ap.mram_bytes_written);
      EXPECT_EQ(sp.mul_count, ap.mul_count);
      EXPECT_EQ(s.phase_dpu_seconds[p], a.phase_dpu_seconds[p]);
    }
  }

  /// Run one config: sim and analytic at width 1 and at c.fuse_width.
  static void check_config(const PathConfig& c);

  static inline SyntheticData* data_ = nullptr;
  static inline IvfPqIndex* narrow_ = nullptr;
  static inline IvfPqIndex* wide_ = nullptr;
};

TEST(KernelPathsGrid, SeededConfigsCoverEveryAxis) {
  std::vector<bool> width_seen(5, false);
  bool q4[2] = {}, dead[2] = {}, wide[2] = {}, sq[2] = {}, cl[2] = {};
  bool depth[3] = {}, big_k[2] = {}, dead_fused = false;
  for (std::size_t i = 0; i < kNumConfigs; ++i) {
    const PathConfig c = draw_config(i);
    width_seen[c.fuse_width] = true;
    q4[c.q4] = dead[c.tombstones] = wide[c.wide] = true;
    sq[c.square_lut] = cl[c.cl_on_pim] = true;
    depth[c.depth] = big_k[c.k_above_smallest_shard] = true;
    dead_fused = dead_fused || (c.tombstones && c.fuse_width > 1);
  }
  EXPECT_TRUE(width_seen[1] && width_seen[2] && width_seen[4]);
  EXPECT_TRUE(q4[0] && q4[1]);
  EXPECT_TRUE(dead[0] && dead[1]);
  EXPECT_TRUE(wide[0] && wide[1]);
  EXPECT_TRUE(sq[0] && sq[1]);
  EXPECT_TRUE(cl[0] && cl[1]);
  EXPECT_TRUE(depth[1] && depth[2]);
  EXPECT_TRUE(big_k[0] && big_k[1]);
  EXPECT_TRUE(dead_fused);
}

void KernelPathsTest::check_config(const PathConfig& c) {
  const IvfPqIndex& index = c.wide ? *wide_ : *narrow_;

  // Tombstones: erase a seeded scatter of ids (about 1 in 6) and serve the
  // published snapshot; otherwise serve the read-only root snapshot.
  IndexSnapshot snapshot;
  if (c.tombstones) {
    IndexWriter writer(index);
    Rng rng(c.seed ^ 0xDEADu);
    for (std::uint32_t id = 0; id < index.ntotal(); ++id) {
      if (rng.next_below(6) == 0) writer.erase(id);
    }
    snapshot = writer.publish();
  }
  const auto make = [&](PimPlatformKind platform, std::size_t width) {
    const DrimEngineOptions o = options(c, platform, width);
    return c.tombstones ? std::make_unique<DrimAnnEngine>(snapshot, data_->learn, o)
                        : std::make_unique<DrimAnnEngine>(index, data_->learn, o);
  };

  auto sim1 = make(PimPlatformKind::kSim, 1);
  auto ana1 = make(PimPlatformKind::kAnalytic, 1);
  std::size_t k = c.k;
  if (c.k_above_smallest_shard) {
    std::uint32_t smallest = 0xFFFFFFFFu;
    for (const Shard& s : sim1->layout().shards()) smallest = std::min(smallest, s.size());
    k = static_cast<std::size_t>(smallest) + 1;
  }
  SCOPED_TRACE("k " + std::to_string(k));

  const RunResult s1 = run(*sim1, c, k);
  const RunResult a1 = run(*ana1, c, k);
  expect_charge_twins(s1, a1);
  EXPECT_EQ(s1.stats.dc_bytes_saved, 0u);

  if (c.fuse_width > 1) {
    auto simw = make(PimPlatformKind::kSim, c.fuse_width);
    auto anaw = make(PimPlatformKind::kAnalytic, c.fuse_width);
    const RunResult sw = run(*simw, c, k);
    const RunResult aw = run(*anaw, c, k);
    expect_charge_twins(sw, aw);
    expect_same_neighbors(s1.neighbors, sw.neighbors);
  }
}

// One test process for the whole grid: the suite trains its two indexes
// once rather than once per config.
TEST_F(KernelPathsTest, PlatformsAreChargeTwinsAndWidthsAgree) {
  for (std::size_t i = 0; i < kNumConfigs; ++i) {
    const PathConfig c = draw_config(i);
    SCOPED_TRACE(c.describe());
    check_config(c);
  }
}

}  // namespace
}  // namespace drim

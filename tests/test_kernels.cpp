// Direct tests of the DPU search kernel against a hand-computed reference:
// exact integer ADC distances, sentinel padding, phase counter placement,
// WRAM budget enforcement, and the shared code-block DMA schedule. Also the
// host-side replay helpers the analytic platform returns results through:
// the coalesced multi-query scan and the rerank-LUT reuse must produce rows
// byte-identical to the single-task paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "drim/host_exact.hpp"
#include "drim/kernels.hpp"
#include "drim/square_lut.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

/// A tiny hand-rolled index: dim=4, m=2, cb=4, one cluster with 3 points.
struct TinyWorld {
  PimConfig cfg;
  std::unique_ptr<Dpu> dpu;
  SearchKernelArgs args;
  std::vector<ShardRegion> shards;

  // Host-side copies for reference math.
  std::vector<std::int16_t> centroid = {10, 10, 20, 20};
  // codebooks[sub][entry][d]: 2 subs x 4 entries x 2 dims.
  std::vector<std::int16_t> codebooks = {
      // sub 0
      0, 0,  5, 5,  -5, -5,  10, 0,
      // sub 1
      0, 0,  3, -3,  8, 8,  -2, 6,
  };
  std::vector<std::uint8_t> codes = {0, 1, 3, 2, 1, 0};  // 3 points x 2 codes
  std::vector<std::uint32_t> ids = {100, 200, 300};
  std::vector<std::int16_t> query = {12, 9, 25, 18};

  TinyWorld() {
    cfg.num_dpus = 1;
    cfg.mram_bytes = 1 << 20;
    dpu = std::make_unique<Dpu>(cfg);

    const SquareLut lut(64);
    Mram& mram = dpu->mram();

    args.dim = 4;
    args.m = 2;
    args.cb = 4;
    args.code_size = 2;
    args.wide_codes = false;
    args.k = 10;
    args.sq_lut_max_abs = 64;
    args.use_square_lut = true;

    args.sq_lut_offset = mram.alloc(lut.size_bytes());
    mram.write(args.sq_lut_offset,
               {reinterpret_cast<const std::uint8_t*>(lut.raw().data()), lut.size_bytes()});
    args.codebooks_offset = mram.alloc(codebooks.size() * 2);
    mram.write(args.codebooks_offset,
               {reinterpret_cast<const std::uint8_t*>(codebooks.data()), codebooks.size() * 2});
    args.centroids_offset = mram.alloc(centroid.size() * 2);
    mram.write(args.centroids_offset,
               {reinterpret_cast<const std::uint8_t*>(centroid.data()), centroid.size() * 2});

    ShardRegion region;
    region.size = 3;
    region.cluster = 0;
    region.codes_offset = mram.alloc(codes.size());
    mram.write(region.codes_offset, codes);
    region.ids_offset = mram.alloc(ids.size() * 4);
    mram.write(region.ids_offset,
               {reinterpret_cast<const std::uint8_t*>(ids.data()), ids.size() * 4});
    shards.push_back(region);

    args.queries_offset = mram.alloc(query.size() * 2);
    mram.write(args.queries_offset,
               {reinterpret_cast<const std::uint8_t*>(query.data()), query.size() * 2});
    args.output_offset = mram.alloc(args.k * sizeof(KernelHit));
  }

  /// Reference integer ADC distance of point i.
  std::uint32_t reference_distance(std::size_t i) const {
    std::uint32_t total = 0;
    for (std::size_t sub = 0; sub < 2; ++sub) {
      const std::uint8_t e = codes[i * 2 + sub];
      for (std::size_t d = 0; d < 2; ++d) {
        const std::int32_t res = query[sub * 2 + d] - centroid[sub * 2 + d];
        const std::int32_t cw = codebooks[(sub * 4 + e) * 2 + d];
        const std::int32_t diff = res - cw;
        total += static_cast<std::uint32_t>(diff * diff);
      }
    }
    return total;
  }

  std::vector<KernelHit> run() {
    dpu->reset_counters();
    DpuContext ctx = dpu->context();
    const KernelTask task{0, 0};
    run_search_kernel(ctx, args, shards, {&task, 1});
    std::vector<KernelHit> hits(args.k);
    dpu->mram().read(args.output_offset,
                     {reinterpret_cast<std::uint8_t*>(hits.data()),
                      args.k * sizeof(KernelHit)});
    return hits;
  }
};

TEST(Kernel, DistancesMatchReferenceExactly) {
  TinyWorld world;
  const auto hits = world.run();

  // All three points returned (k=10 > 3), sorted ascending, exact distances.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expect;  // (dist, id)
  for (std::size_t i = 0; i < 3; ++i) {
    expect.push_back({world.reference_distance(i), world.ids[i]});
  }
  std::sort(expect.begin(), expect.end());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hits[i].dist, expect[i].first) << "rank " << i;
    EXPECT_EQ(hits[i].id, expect[i].second) << "rank " << i;
  }
}

TEST(Kernel, PadsShortShardWithSentinels) {
  TinyWorld world;
  const auto hits = world.run();
  for (std::size_t i = 3; i < world.args.k; ++i) {
    EXPECT_EQ(hits[i].dist, 0xFFFFFFFFu);
    EXPECT_EQ(hits[i].id, 0xFFFFFFFFu);
  }
}

TEST(Kernel, ChargesPhasesSeparately) {
  TinyWorld world;
  world.run();
  const DpuCounters& c = world.dpu->counters();
  EXPECT_GT(c.at(Phase::RC).instr_cycles, 0u);
  EXPECT_GT(c.at(Phase::LC).instr_cycles, 0u);
  EXPECT_GT(c.at(Phase::DC).instr_cycles, 0u);
  EXPECT_GT(c.at(Phase::TS).instr_cycles, 0u);
  EXPECT_EQ(c.at(Phase::CL).instr_cycles, 0u);  // CL runs on the host
  EXPECT_GT(c.at(Phase::LC).mram_bytes_read, 0u);  // codebook DMA
  EXPECT_GT(c.at(Phase::DC).mram_bytes_read, 0u);  // code stream
}

TEST(Kernel, SquareLutEliminatesLcMultiplies) {
  TinyWorld world;
  world.run();
  EXPECT_EQ(world.dpu->counters().at(Phase::LC).mul_count, 0u);

  world.args.use_square_lut = false;
  world.run();
  // 2 subs x 4 entries x 2 dims squares, all multiplies now.
  EXPECT_EQ(world.dpu->counters().at(Phase::LC).mul_count, 16u);
}

TEST(Kernel, ChargingIsDataIndependent) {
  // The squaring charge policy is determined by the args, not the operand
  // values: shrinking the table does not change any counter (the broadcast
  // table is sized to cover the full operand range in real runs, and keeping
  // the charge stream deterministic is what makes sim == analytic exact).
  TinyWorld world;
  world.run();
  const DpuCounters full = world.dpu->counters();

  world.args.sq_lut_max_abs = 2;  // tiny table; arithmetic still exact
  const auto hits = world.run();
  const DpuCounters& tiny = world.dpu->counters();
  EXPECT_EQ(tiny.at(Phase::LC).mul_count, 0u);
  EXPECT_EQ(tiny.at(Phase::LC).instr_cycles, full.at(Phase::LC).instr_cycles);
  EXPECT_EQ(tiny.at(Phase::TS).instr_cycles, full.at(Phase::TS).instr_cycles);

  // Distances stay exact regardless of the charging policy.
  std::vector<std::uint32_t> dists;
  for (std::size_t i = 0; i < 3; ++i) dists.push_back(world.reference_distance(i));
  std::sort(dists.begin(), dists.end());
  EXPECT_EQ(hits[0].dist, dists[0]);
}

TEST(Kernel, AnalyticTwinChargesExactlyEqualCounters) {
  // charge_search_kernel must reproduce run_search_kernel's per-phase
  // counters bit-for-bit: instruction cycles, DMA cycles, MRAM bytes, muls.
  for (const bool use_lut : {true, false}) {
    TinyWorld world;
    world.args.use_square_lut = use_lut;
    world.run();  // functional counters in world.dpu

    Dpu twin(world.cfg);
    DpuContext ctx = twin.context();
    const KernelTask task{0, 0};
    charge_search_kernel(ctx, world.args, world.shards, {&task, 1});

    const DpuCounters& a = world.dpu->counters();
    const DpuCounters& b = twin.counters();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const auto ph = static_cast<Phase>(p);
      EXPECT_EQ(a.at(ph).instr_cycles, b.at(ph).instr_cycles) << phase_name(ph);
      EXPECT_EQ(a.at(ph).mul_count, b.at(ph).mul_count) << phase_name(ph);
      EXPECT_EQ(a.at(ph).mram_bytes_read, b.at(ph).mram_bytes_read) << phase_name(ph);
      EXPECT_EQ(a.at(ph).mram_bytes_written, b.at(ph).mram_bytes_written) << phase_name(ph);
      EXPECT_DOUBLE_EQ(a.at(ph).dma_cycles, b.at(ph).dma_cycles) << phase_name(ph);
    }
  }
}

TEST(Kernel, MultiplyPathCostsMoreCycles) {
  TinyWorld world;
  world.run();
  const std::uint64_t lut_cycles = world.dpu->counters().at(Phase::LC).instr_cycles;
  world.args.use_square_lut = false;
  world.run();
  const std::uint64_t mul_cycles = world.dpu->counters().at(Phase::LC).instr_cycles;
  EXPECT_GT(mul_cycles, lut_cycles);
}

TEST(Kernel, WramBudgetEnforced) {
  TinyWorld world;
  world.cfg.wram_bytes = 64;  // absurdly small
  Dpu tiny_dpu(world.cfg);
  DpuContext ctx = tiny_dpu.context();
  const KernelTask task{0, 0};
  EXPECT_THROW(run_search_kernel(ctx, world.args, world.shards, {&task, 1}),
               std::runtime_error);
}

TEST(Kernel, EmptyTaskListIsNoop) {
  TinyWorld world;
  DpuContext ctx = world.dpu->context();
  run_search_kernel(ctx, world.args, world.shards, {});
  EXPECT_EQ(world.dpu->counters().at(Phase::LC).instr_cycles, 0u);
}

// The DC loop's DMA schedule is THE shared helper: the functional and
// charge kernels both iterate for_each_code_block, so asserting its block
// sequence pins the transfer counts AND sizes both sides issue. Any future
// fork of the loop shows up here as a schedule mismatch.
TEST(ForEachCodeBlock, FunctionalAndChargeScheduleAreTheSameSequence) {
  const std::size_t code_size = 20;  // does not divide kMaxDmaBytes evenly
  const std::size_t points = 517;
  const std::size_t codes_bytes = points * code_size;
  std::vector<std::pair<std::size_t, std::size_t>> a, b;
  for_each_code_block(codes_bytes, code_size,
                      [&](std::size_t off, std::size_t bytes) { a.push_back({off, bytes}); });
  for_each_code_block(codes_bytes, code_size,
                      [&](std::size_t off, std::size_t bytes) { b.push_back({off, bytes}); });
  ASSERT_EQ(a, b);  // deterministic: same inputs, same transfer sequence
  // The schedule covers the region contiguously in DMA-legal blocks of whole
  // codes.
  std::size_t expect_off = 0;
  for (const auto& [off, bytes] : a) {
    EXPECT_EQ(off, expect_off);
    EXPECT_LE(bytes, kMaxDmaBytes);
    EXPECT_EQ(bytes % code_size, 0u);
    EXPECT_GT(bytes, 0u);
    expect_off = off + bytes;
  }
  EXPECT_EQ(expect_off, codes_bytes);
  EXPECT_EQ(a.size(), (points + kMaxDmaBytes / code_size - 1) /
                          (kMaxDmaBytes / code_size));
}

// ---- host-exact replay helpers ----

class HostReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_base = 6000;
    spec.num_queries = 48;
    spec.num_learn = 2500;
    spec.num_components = 48;
    data_ = new SyntheticData(make_sift_like(spec));

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
    delete index_;
  }

  static inline SyntheticData* data_ = nullptr;
  static inline IvfPqIndex* index_ = nullptr;
};

TEST_F(HostReplayTest, HostFusedScanMatchesSingleTaskReplayOnBothRungs) {
  const PimIndexData data(*index_);
  std::vector<std::vector<std::int16_t>> q16;
  for (std::size_t q = 0; q < 4; ++q) {
    q16.push_back(PimIndexData::quantize_query(data_->queries.row(q)));
  }
  const std::uint32_t k = 10;
  for (std::uint32_t cluster = 0; cluster < 3; ++cluster) {
    Shard whole;
    whole.cluster = cluster;
    whole.begin = 0;
    whole.end = static_cast<std::uint32_t>(data.cluster_size(cluster));
    for (const bool q4 : {false, true}) {
      SCOPED_TRACE("cluster " + std::to_string(cluster) + (q4 ? " q4" : " full"));
      std::vector<KernelHit> fused_rows(q16.size() * k);
      std::vector<HostFusedTask> tasks;
      for (std::size_t w = 0; w < q16.size(); ++w) {
        tasks.push_back({q16[w].data(), fused_rows.data() + w * k});
      }
      host_search_tasks_fused_into(data, tasks, whole, k, q4);
      for (std::size_t w = 0; w < q16.size(); ++w) {
        std::vector<KernelHit> row(k);
        if (q4) {
          host_search_task_q4_into(data, q16[w], whole, k, row);
        } else {
          host_search_task_into(data, q16[w], whole, k, row);
        }
        EXPECT_EQ(std::memcmp(row.data(), fused_rows.data() + w * k,
                              k * sizeof(KernelHit)),
                  0)
            << "member " << w;
      }
    }
  }
}

TEST_F(HostReplayTest, RerankWithPrebuiltLutMatchesRebuildingVariant) {
  const PimIndexData data(*index_);
  ASSERT_TRUE(data.has_q4());
  const auto q16 = PimIndexData::quantize_query(data_->queries.row(0));
  Shard whole;
  whole.cluster = 0;
  whole.begin = 0;
  whole.end = static_cast<std::uint32_t>(data.cluster_size(0));
  const std::uint32_t k = 10;
  std::vector<KernelHit> a(k), b(k);
  host_search_task_q4_into(data, q16, whole, k, a);
  std::copy(a.begin(), a.end(), b.begin());
  host_rerank_q4_row(data, q16, whole, a);
  std::vector<std::uint32_t> lut(data.m() * data.cb_entries());
  host_build_adc_lut(data, q16, whole.cluster, lut);
  host_rerank_q4_row_with_lut(data, lut, whole, b);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), k * sizeof(KernelHit)), 0);
}

}  // namespace
}  // namespace drim

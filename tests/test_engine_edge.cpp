// Edge-case and failure-injection tests for the DRIM engine and PIM
// substrate: degenerate topologies, wide PQ codes through the whole engine,
// oversubscribed k, MRAM and WRAM exhaustion, and batch-size extremes.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/flat_search.hpp"
#include "data/recall.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"

namespace drim {
namespace {

SyntheticData small_data() {
  SyntheticSpec spec;
  spec.num_base = 2000;
  spec.num_queries = 24;
  spec.num_learn = 800;
  spec.num_components = 16;
  return make_sift_like(spec);
}

IvfPqIndex small_index(const SyntheticData& data, std::size_t nlist = 16,
                       std::size_t m = 16, std::size_t cb = 64) {
  IvfPqParams p;
  p.nlist = nlist;
  p.pq.m = m;
  p.pq.cb_entries = cb;
  IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);
  return index;
}

TEST(EngineEdge, SingleDpuWorks) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data);
  DrimEngineOptions o;
  o.pim.num_dpus = 1;
  DrimAnnEngine engine(index, data.learn, o);
  DrimSearchStats st;
  const auto results = engine.search(data.queries, 5, 4, &st);
  EXPECT_EQ(results.size(), data.queries.count());
  for (const auto& r : results) EXPECT_EQ(r.size(), 5u);
  // One DPU: its busy time IS the batch time.
  EXPECT_NEAR(st.per_dpu_seconds[0], st.dpu_busy_seconds, 1e-12);
}

TEST(EngineEdge, MoreDpusThanShards) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data, 8);
  DrimEngineOptions o;
  o.pim.num_dpus = 128;  // vastly more DPUs than shards
  o.layout.enable_split = false;
  o.layout.enable_duplicate = false;
  DrimAnnEngine engine(index, data.learn, o);
  const auto results = engine.search(data.queries, 5, 4);
  EXPECT_EQ(results.size(), data.queries.count());
}

TEST(EngineEdge, NprobeLargerThanNlistClamps) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data, 8);
  DrimEngineOptions o;
  o.pim.num_dpus = 4;
  DrimAnnEngine engine(index, data.learn, o);
  const auto gt = flat_search_all(data.base, data.queries, 5);
  const auto results = engine.search(data.queries, 5, 1000);  // > nlist
  // Full probe: recall should match a full scan through the quantizer.
  EXPECT_GT(mean_recall_at_k(results, gt, 5), 0.5);
}

TEST(EngineEdge, KLargerThanClusterContents) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data);
  DrimEngineOptions o;
  o.pim.num_dpus = 4;
  DrimAnnEngine engine(index, data.learn, o);
  // nprobe=1, k=400: the probed cluster may hold fewer than k points.
  const auto results = engine.search(data.queries, 400, 1);
  for (const auto& r : results) {
    EXPECT_LE(r.size(), 400u);
    EXPECT_GT(r.size(), 0u);
    for (std::size_t i = 1; i < r.size(); ++i) EXPECT_LE(r[i - 1].dist, r[i].dist);
  }
}

TEST(EngineEdge, WideCodesThroughWholeEngine) {
  const SyntheticData data = small_data();
  // CB = 300 > 256 forces 16-bit codes; M = 8 keeps the WRAM LUT small.
  const IvfPqIndex index = small_index(data, 16, 8, 300);
  ASSERT_TRUE(index.pq().wide_codes());
  DrimEngineOptions o;
  o.pim.num_dpus = 8;
  DrimAnnEngine engine(index, data.learn, o);

  const auto drim = engine.search(data.queries, 5, 8);
  std::vector<std::vector<Neighbor>> host;
  for (std::size_t q = 0; q < data.queries.count(); ++q) {
    host.push_back(index.search(data.queries.row(q), 5, 8));
  }
  const auto gt = flat_search_all(data.base, data.queries, 5);
  EXPECT_NEAR(mean_recall_at_k(drim, gt, 5), mean_recall_at_k(host, gt, 5), 0.1);
}

TEST(EngineEdge, BatchSizeOneMatchesSingleBatch) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data);
  DrimEngineOptions one;
  one.pim.num_dpus = 4;
  one.batch_size = 1;
  one.scheduler.enable_filter = false;  // per-query batches: nothing to defer
  DrimEngineOptions all;
  all.pim.num_dpus = 4;

  DrimAnnEngine e1(index, data.learn, one);
  DrimAnnEngine e2(index, data.learn, all);
  const auto r1 = e1.search(data.queries, 5, 4);
  const auto r2 = e2.search(data.queries, 5, 4);
  for (std::size_t q = 0; q < r1.size(); ++q) {
    ASSERT_EQ(r1[q].size(), r2[q].size());
    for (std::size_t i = 0; i < r1[q].size(); ++i) {
      EXPECT_EQ(r1[q][i].id, r2[q][i].id);
    }
  }
}

TEST(EngineEdge, MramExhaustionThrowsCleanly) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data);
  DrimEngineOptions o;
  o.pim.num_dpus = 2;
  o.pim.mram_bytes = 32 << 10;  // 32 KB: cannot hold codebooks + shards
  EXPECT_THROW(DrimAnnEngine(index, data.learn, o), std::runtime_error);
}

/// Expect `fn` to throw std::invalid_argument whose message names every
/// string in `knobs`.
template <typename Fn>
void expect_invalid_naming(const Fn& fn, std::initializer_list<std::string> knobs) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& knob : knobs) {
      EXPECT_NE(what.find(knob), std::string::npos) << "'" << knob << "' in: " << what;
    }
  }
}

// A search-kernel working set that cannot fit WRAM fails fast with
// std::invalid_argument naming m, cb, k and pim.wram_bytes: at construction
// (k 1), and at search entry when only the caller's k overflows — never as a
// runtime_error from inside a launch. When only the 4-bit rung's buffers
// overflow, the error also names enable_q4.
TEST(EngineEdge, InfeasibleWramWorkingSetNamesTheKnobs) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data, 16, 16, 256);  // 16 KB LUT alone
  {
    DrimEngineOptions o;
    o.pim.num_dpus = 4;
    o.pim.wram_bytes = 16 << 10;
    expect_invalid_naming([&] { DrimAnnEngine engine(index, data.learn, o); },
                          {"m 16", "cb 256", "k 1", "pim.wram_bytes 16384"});
  }

  // Budget for the working set at k 5: construction (k 1) passes, a k 10
  // search is rejected before any launch.
  DrimEngineOptions o;
  o.pim.num_dpus = 4;
  const DrimAnnEngine probe(index, data.learn, o);
  SearchKernelArgs args;
  args.dim = static_cast<std::uint32_t>(index.dim());
  args.m = 16;
  args.cb = 256;
  args.k = 5;
  args.use_square_lut = o.use_square_lut;
  args.sq_lut_max_abs = static_cast<std::uint32_t>(probe.square_lut().max_abs());
  o.pim.wram_bytes = search_wram_bytes(args, false);
  DrimAnnEngine engine(index, data.learn, o);
  EXPECT_EQ(engine.search(data.queries, 5, 4).size(), data.queries.count());
  expect_invalid_naming([&] { engine.search(data.queries, 10, 4); },
                        {"m 16", "cb 256", "k 10",
                         "pim.wram_bytes " + std::to_string(o.pim.wram_bytes)});

  // The same budget with the ladder on: only the q4 rung's coarse sub-LUT
  // and pair-LUT buffers overflow, so construction names enable_q4.
  o.enable_q4 = true;
  expect_invalid_naming([&] { DrimAnnEngine q4_engine(index, data.learn, o); },
                        {"enable_q4", "m 16", "cb 256", "k 1",
                         "pim.wram_bytes " + std::to_string(o.pim.wram_bytes)});
}

TEST(EngineEdge, ZeroQueriesIsEmptyResult) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data);
  DrimEngineOptions o;
  o.pim.num_dpus = 4;
  DrimAnnEngine engine(index, data.learn, o);
  FloatMatrix empty(0, index.dim());
  DrimSearchStats st;
  const auto results = engine.search(empty, 5, 4, &st);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(st.tasks, 0u);
}

TEST(EngineEdge, DpqVariantThroughEngine) {
  const SyntheticData data = small_data();
  IvfPqParams p;
  p.nlist = 16;
  p.pq.m = 16;
  p.pq.cb_entries = 64;
  p.variant = PQVariant::kDPQ;
  IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);

  DrimEngineOptions o;
  o.pim.num_dpus = 4;
  DrimAnnEngine engine(index, data.learn, o);
  const auto gt = flat_search_all(data.base, data.queries, 5);
  const auto results = engine.search(data.queries, 5, 8);
  EXPECT_GT(mean_recall_at_k(results, gt, 5), 0.4);
}

TEST(EngineEdge, FilterSlackZeroStillCompletesAllQueries) {
  const SyntheticData data = small_data();
  const IvfPqIndex index = small_index(data);
  DrimEngineOptions o;
  o.pim.num_dpus = 4;
  o.batch_size = 6;
  o.scheduler.enable_filter = true;
  o.scheduler.filter_slack = 0.0;  // maximally aggressive deferral
  DrimAnnEngine engine(index, data.learn, o);
  DrimSearchStats st;
  const auto results = engine.search(data.queries, 5, 4, &st);
  for (const auto& r : results) EXPECT_FALSE(r.empty());
  EXPECT_GE(st.batches, 4u);  // deferred work forces extra drain batches
}

}  // namespace
}  // namespace drim

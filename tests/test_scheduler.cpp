// Tests for the runtime scheduler: task completeness (every (q, slice)
// scheduled exactly once), replica choice, load prediction, and the
// inter-batch filter — including its busy-DPU cap at task granularity (fewer
// tasks than DPUs) and a randomized differential test against the all-DPU
// mean rule wherever every DPU is busy.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "drim/scheduler.hpp"

namespace drim {
namespace {

struct SchedulerWorld {
  SyntheticData data;
  IvfPqIndex index;
  std::unique_ptr<PimIndexData> pim_data;
  std::vector<double> heat;
  std::unique_ptr<DataLayout> layout;

  explicit SchedulerWorld(const LayoutParams& params, std::size_t num_dpus = 12) {
    SyntheticSpec spec;
    spec.num_base = 4000;
    spec.num_queries = 80;
    spec.num_learn = 1500;
    spec.num_components = 32;
    spec.query_skew = 1.0;
    data = make_sift_like(spec);

    IvfPqParams p;
    p.nlist = 32;
    p.pq.m = 8;
    p.pq.cb_entries = 16;
    index.train(data.learn, p);
    index.add(data.base);
    pim_data = std::make_unique<PimIndexData>(index);
    heat = estimate_heat(index, data.queries, 8);
    layout = std::make_unique<DataLayout>(*pim_data, num_dpus, heat, params);
  }

  std::vector<std::vector<std::uint32_t>> probes(std::size_t nprobe) const {
    std::vector<std::vector<std::uint32_t>> out(data.queries.count());
    for (std::size_t q = 0; q < data.queries.count(); ++q) {
      out[q] = index.locate_clusters(data.queries.row(q), nprobe);
    }
    return out;
  }
};

LayoutParams default_params() {
  LayoutParams p;
  p.split_threshold = 128;
  p.dup_copies = 1;
  p.dup_fraction = 0.2;
  return p;
}

TEST(Scheduler, EveryQuerySliceScheduledExactlyOnce) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const auto probes = world.probes(8);
  const Assignment a = sched.schedule(probes, {}, /*final_batch=*/true);

  // Expected task multiset: for each query, one task per (cluster, slice).
  std::map<std::pair<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>, int> expected;
  for (std::size_t q = 0; q < probes.size(); ++q) {
    for (std::uint32_t c : probes[q]) {
      const auto& groups = world.layout->slice_groups(c);
      for (std::size_t s = 0; s < groups.size(); ++s) {
        if (!groups[s].empty()) {
          ++expected[{static_cast<std::uint32_t>(q),
                      {c, static_cast<std::uint32_t>(s)}}];
        }
      }
    }
  }

  std::map<std::pair<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>, int> got;
  for (const auto& dpu_tasks : a.per_dpu) {
    for (const Task& t : dpu_tasks) {
      const Shard& sh = world.layout->shard(t.shard);
      // Slice index = position of this shard's range within the cluster.
      const auto& groups = world.layout->slice_groups(sh.cluster);
      std::uint32_t slice = 0;
      for (std::size_t s = 0; s < groups.size(); ++s) {
        const Shard& rep = world.layout->shard(groups[s].front());
        if (rep.begin == sh.begin && rep.end == sh.end) {
          slice = static_cast<std::uint32_t>(s);
          break;
        }
      }
      ++got[{t.query, {sh.cluster, slice}}];
    }
  }
  EXPECT_TRUE(a.deferred.empty());
  EXPECT_EQ(got, expected);
}

TEST(Scheduler, TasksLandOnDpusHoldingTheShard) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const Assignment a = sched.schedule(world.probes(8), {}, true);
  for (std::size_t d = 0; d < a.per_dpu.size(); ++d) {
    for (const Task& t : a.per_dpu[d]) {
      EXPECT_EQ(world.layout->shard(t.shard).dpu, d);
    }
  }
}

TEST(Scheduler, PredictedLoadMatchesTaskCosts) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const Assignment a = sched.schedule(world.probes(4), {}, true);
  for (std::size_t d = 0; d < a.per_dpu.size(); ++d) {
    double sum = 0.0;
    for (const Task& t : a.per_dpu[d]) {
      sum += sched.task_cost(world.layout->shard(t.shard));
    }
    EXPECT_NEAR(a.predicted_load[d], sum, 1e-6 * std::max(1.0, sum));
  }
}

TEST(Scheduler, Eq15LatencyLinearInShardSize) {
  SchedulerWorld world(default_params());
  SchedulerParams p;
  p.l_lut = 100.0;
  p.l_calu = 2.0;
  p.l_sortu = 1.0;
  RuntimeScheduler sched(*world.layout, p);
  Shard small;
  small.begin = 0;
  small.end = 10;
  Shard big;
  big.begin = 0;
  big.end = 100;
  EXPECT_DOUBLE_EQ(sched.task_cost(small), 100.0 + 10 * 3.0);
  EXPECT_DOUBLE_EQ(sched.task_cost(big), 100.0 + 100 * 3.0);
}

TEST(Scheduler, FilterDefersWorkFromOverloadedDpus) {
  SchedulerWorld world(default_params());
  SchedulerParams p;
  p.enable_filter = true;
  p.filter_slack = 0.0;  // aggressive: anything above mean defers
  RuntimeScheduler sched(*world.layout, p);
  const Assignment a = sched.schedule(world.probes(8), {}, /*final_batch=*/false);
  EXPECT_GT(a.deferred.size(), 0u);

  // Conservation: deferred + scheduled == total demand.
  std::size_t scheduled = 0;
  for (const auto& tasks : a.per_dpu) scheduled += tasks.size();
  const Assignment all = sched.schedule(world.probes(8), {}, true);
  std::size_t total = 0;
  for (const auto& tasks : all.per_dpu) total += tasks.size();
  EXPECT_EQ(scheduled + a.deferred.size(), total);
}

TEST(Scheduler, FinalBatchNeverDefers) {
  SchedulerWorld world(default_params());
  SchedulerParams p;
  p.enable_filter = true;
  p.filter_slack = 0.0;
  RuntimeScheduler sched(*world.layout, p);
  const Assignment a = sched.schedule(world.probes(8), {}, /*final_batch=*/true);
  EXPECT_TRUE(a.deferred.empty());
}

TEST(Scheduler, CarriedTasksAreRescheduled) {
  SchedulerWorld world(default_params());
  RuntimeScheduler sched(*world.layout, SchedulerParams{});
  const auto probes = world.probes(4);
  const Assignment first = sched.schedule(probes, {}, true);

  // Take a few tasks and carry them into an empty batch.
  std::vector<Task> carried;
  for (const auto& tasks : first.per_dpu) {
    for (const Task& t : tasks) {
      carried.push_back(t);
      if (carried.size() >= 5) break;
    }
    if (carried.size() >= 5) break;
  }
  std::vector<std::vector<std::uint32_t>> empty_probes(probes.size());
  const Assignment second = sched.schedule(empty_probes, carried, true);
  std::size_t scheduled = 0;
  for (const auto& tasks : second.per_dpu) scheduled += tasks.size();
  EXPECT_EQ(scheduled, carried.size());
}

TEST(Scheduler, DuplicationSpreadsContendedCluster) {
  // Observation 2 in its pure form: every query in the batch probes the SAME
  // cluster. Without replicas all tasks serialize on the cluster's one DPU;
  // with replicas the scheduler fans them out.
  LayoutParams no_dup = default_params();
  no_dup.enable_duplicate = false;
  no_dup.enable_split = false;
  LayoutParams with_dup = no_dup;
  with_dup.enable_duplicate = true;
  with_dup.dup_copies = 3;
  with_dup.dup_fraction = 1.0;  // duplicate everything so the target is covered

  SchedulerWorld a(no_dup), b(with_dup);

  // All 40 queries hit cluster 0 only.
  std::vector<std::vector<std::uint32_t>> probes(40, std::vector<std::uint32_t>{0});

  RuntimeScheduler sa(*a.layout, SchedulerParams{});
  RuntimeScheduler sb(*b.layout, SchedulerParams{});
  const auto pa = sa.schedule(probes, {}, true).predicted_load;
  const auto pb = sb.schedule(probes, {}, true).predicted_load;

  // Without duplication one DPU carries everything.
  std::size_t loaded_a = 0, loaded_b = 0;
  for (double l : pa) loaded_a += (l > 0.0);
  for (double l : pb) loaded_b += (l > 0.0);
  EXPECT_EQ(loaded_a, 1u);
  EXPECT_EQ(loaded_b, 4u);  // primary + 3 replicas
  EXPECT_LT(imbalance_factor(pb), imbalance_factor(pa));
}

TEST(Scheduler, FilterDefersNothingWhenEachBusyDpuHoldsOneTask) {
  // Paper-scale shape: far more DPUs than tasks. Every DPU given work holds
  // exactly one task, so the busy-DPU cap (slack 0 = the busy mean) can cost
  // at most a single task's worth and the filter must keep everything.
  SchedulerWorld world(default_params(), /*num_dpus=*/256);
  SchedulerParams p;
  p.filter_slack = 0.0;
  RuntimeScheduler sched(*world.layout, p);
  // Two queries that probe disjoint clusters, so no DPU gets two tasks.
  const auto all_probes = world.probes(4);
  const auto disjoint = [&](const std::vector<std::uint32_t>& other) {
    return std::none_of(other.begin(), other.end(), [&](std::uint32_t c) {
      return std::find(all_probes[0].begin(), all_probes[0].end(), c) !=
             all_probes[0].end();
    });
  };
  const auto second = std::find_if(all_probes.begin() + 1, all_probes.end(), disjoint);
  ASSERT_NE(second, all_probes.end());
  const std::vector<std::vector<std::uint32_t>> probes{all_probes[0], *second};

  const Assignment unfiltered = sched.schedule(probes, {}, /*final_batch=*/true);
  std::size_t busy = 0, tasks = 0;
  for (const auto& dpu_tasks : unfiltered.per_dpu) {
    ASSERT_LE(dpu_tasks.size(), 1u) << "precondition: one task per busy DPU";
    busy += dpu_tasks.empty() ? 0 : 1;
    tasks += dpu_tasks.size();
  }
  ASSERT_LT(tasks, world.layout->num_dpus());
  ASSERT_GT(busy, 1u);
  // The tasks differ in cost, so a cap below the largest would bite.
  ASSERT_GT(*std::max_element(unfiltered.predicted_load.begin(),
                              unfiltered.predicted_load.end()),
            std::accumulate(unfiltered.predicted_load.begin(),
                            unfiltered.predicted_load.end(), 0.0) /
                static_cast<double>(busy));

  const Assignment a = sched.schedule(probes, {}, /*final_batch=*/false);
  EXPECT_TRUE(a.deferred.empty());
  for (std::size_t d = 0; d < a.per_dpu.size(); ++d) {
    EXPECT_EQ(a.per_dpu[d].size(), unfiltered.per_dpu[d].size()) << "dpu " << d;
    EXPECT_EQ(a.predicted_load[d], unfiltered.predicted_load[d]) << "dpu " << d;
  }
}

/// The inter-batch filter as it was before the busy-DPU cap: every DPU above
/// (1 + slack) x the mean over ALL DPUs sheds its cheapest tasks, down to
/// none. Applied to an unfiltered assignment (schedule(..., final_batch =
/// true)), it is the reference the differential test below compares with.
Assignment all_dpu_mean_filter(const RuntimeScheduler& sched, const DataLayout& layout,
                               Assignment out,
                               const std::vector<std::uint8_t>& precision) {
  const auto cost = [&](const Task& t) {
    return sched.task_cost(layout.shard(t.shard), precision[t.query] != 0);
  };
  const double mean =
      std::accumulate(out.predicted_load.begin(), out.predicted_load.end(), 0.0) /
      static_cast<double>(out.per_dpu.size());
  const double cap = (1.0 + sched.params().filter_slack) * mean;
  for (std::size_t dpu = 0; dpu < out.per_dpu.size(); ++dpu) {
    auto& tasks = out.per_dpu[dpu];
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](const Task& a, const Task& b) { return cost(a) > cost(b); });
    while (out.predicted_load[dpu] > cap && !tasks.empty()) {
      const Task t = tasks.back();
      tasks.pop_back();
      out.predicted_load[dpu] -= cost(t);
      out.deferred.push_back(t);
    }
  }
  return out;
}

bool same_tasks(const std::vector<Task>& a, const std::vector<Task>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Task& x, const Task& y) {
                      return x.query == y.query && x.shard == y.shard;
                    });
}

TEST(Scheduler, FilterNeverEmptiesADpuAndMatchesAllDpuMeanWhenAllBusy) {
  // One corpus, many seeded layouts and probe tables. Two contracts:
  //  (1) the filter never empties a DPU the greedy pass gave work to;
  //  (2) wherever every DPU stays busy under the old all-DPU-mean rule, the
  //      busy-DPU cap reproduces it exactly (per_dpu, deferred and
  //      predicted_load bit for bit) — which is why a run where every DPU is
  //      busy (e.g. 64 DPUs with tasks >> DPUs) cannot move.
  SchedulerWorld world(default_params());
  const std::size_t nq = world.data.queries.count();
  const std::size_t nlist = world.index.nlist();
  std::size_t compared = 0, compared_with_deferrals = 0, lone_tasks_above_cap = 0;
  constexpr std::uint64_t kTrials = 80;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 7);
    LayoutParams lp = default_params();
    lp.split_threshold = std::vector<std::size_t>{64, 128, 256}[rng() % 3];
    lp.dup_copies = 1 + rng() % 2;
    lp.dup_fraction = std::vector<double>{0.0, 0.2, 0.5}[rng() % 3];
    // Mostly tasks >> DPUs; 64 and 128 DPUs give the paper-scale shape
    // where single-task DPUs sit above the busy mean.
    const std::size_t num_dpus =
        std::vector<std::size_t>{4, 8, 12, 16, 16, 64, 128}[rng() % 7];
    const DataLayout layout(*world.pim_data, num_dpus, world.heat, lp);

    SchedulerParams p;
    p.filter_slack = std::vector<double>{0.0, 0.1, 0.3, 0.6}[rng() % 4];
    const RuntimeScheduler sched(layout, p);

    // Random probe table over a random query range; a random rung per query.
    std::vector<std::vector<std::uint32_t>> probes(nq);
    std::vector<std::uint8_t> precision(nq);
    const std::size_t nprobe = 1 + rng() % 12;
    for (std::size_t q = 0; q < nq; ++q) {
      if (rng() % 2 == 0) {
        probes[q] = world.index.locate_clusters(world.data.queries.row(q), nprobe);
      } else {
        for (std::size_t i = 0; i < nprobe; ++i) {
          probes[q].push_back(static_cast<std::uint32_t>(rng() % nlist));
        }
      }
      precision[q] = rng() % 4 == 0 ? 1 : 0;
    }
    const std::size_t begin = rng() % (nq / 2);
    const std::size_t end = begin + 1 + rng() % (rng() % 3 == 0 ? 3 : nq - begin);
    SCOPED_TRACE("seed " + std::to_string(seed) + " dpus " + std::to_string(num_dpus) +
                 " queries [" + std::to_string(begin) + ", " + std::to_string(end) + ")");

    const Assignment unfiltered = sched.schedule(probes, begin, end, {}, true, &precision);
    const Assignment filtered = sched.schedule(probes, begin, end, {}, false, &precision);
    double busy_load = 0.0;
    std::size_t busy = 0;
    for (std::size_t d = 0; d < num_dpus; ++d) {
      if (unfiltered.per_dpu[d].empty()) continue;
      busy_load += unfiltered.predicted_load[d];
      ++busy;
    }
    const double cap = (1.0 + p.filter_slack) * busy_load / static_cast<double>(busy);
    bool all_busy = true;
    for (std::size_t d = 0; d < num_dpus; ++d) {
      EXPECT_EQ(filtered.per_dpu[d].empty(), unfiltered.per_dpu[d].empty())
          << "dpu " << d;
      all_busy = all_busy && !unfiltered.per_dpu[d].empty();
      // A lone task above the cap: only the last-task rule keeps it.
      if (unfiltered.per_dpu[d].size() == 1 && unfiltered.predicted_load[d] > cap) {
        ++lone_tasks_above_cap;
      }
    }

    const Assignment reference = all_dpu_mean_filter(sched, layout, unfiltered, precision);
    for (const auto& tasks : reference.per_dpu) all_busy = all_busy && !tasks.empty();
    if (!all_busy) continue;
    ++compared;
    if (!reference.deferred.empty()) ++compared_with_deferrals;
    EXPECT_TRUE(same_tasks(filtered.deferred, reference.deferred));
    for (std::size_t d = 0; d < num_dpus; ++d) {
      EXPECT_TRUE(same_tasks(filtered.per_dpu[d], reference.per_dpu[d])) << "dpu " << d;
      EXPECT_EQ(filtered.predicted_load[d], reference.predicted_load[d]) << "dpu " << d;
    }
  }
  // Both halves are live: some DPUs hold a lone task above the cap, many
  // trials keep every DPU busy, and the filter really defers in them.
  EXPECT_GT(lone_tasks_above_cap, 0u);
  EXPECT_GE(compared, kTrials / 3);
  EXPECT_GE(compared_with_deferrals, kTrials / 6);
}

}  // namespace
}  // namespace drim

#pragma once
// Runtime query scheduling (Section IV-D). After the host locates clusters
// for a batch of queries, every (query, cluster) pair is mapped to shard
// tasks (q, n_c). The *predictor* estimates each task's DPU latency with the
// paper's Eq. 15, latency = l_LUT + x * l_calu + x * l_sortu (x = shard
// size), and a greedy pass assigns every task to the least-loaded DPU among
// the replicas that hold its shard. The *filter* then defers some tasks from
// predicted-overloaded DPUs into a buffer for the next batch.

#include <cstdint>
#include <vector>

#include "drim/layout.hpp"

namespace drim {

/// Replica-choice policy; kRoundRobin exists for the scheduler ablation
/// (bench/ablation_scheduler) and ignores the Eq. 15 predictor.
enum class SchedulePolicy : std::uint8_t { kGreedy, kRoundRobin };

/// Eq. 15 coefficients plus filter policy.
struct SchedulerParams {
  /// Latency units are DPU cycles; defaults are derived from the kernel cost
  /// model (M * CB codeword partial distances for one LUT; per-point ADC sum
  /// and heap push). The engine overrides them with exact per-index values.
  double l_lut = 8000.0;   ///< LUT construction latency per task
  double l_calu = 40.0;    ///< distance calculation per point
  double l_sortu = 12.0;   ///< top-k update per point
  /// Eq. 15 coefficients of the 4-bit rung (DESIGN.md §15): a q4 task builds
  /// cb4-entry coarse LUTs (plus the pair fold) and scans packed codes, so
  /// both its fixed and per-point terms are cheaper. l_sortu is rung-
  /// independent (TS sees the same point stream either way).
  double l_lut_q4 = 4000.0;
  double l_calu_q4 = 20.0;
  bool enable_filter = true;
  double filter_slack = 0.30;  ///< defer work above (1+slack)*mean load
  SchedulePolicy policy = SchedulePolicy::kGreedy;
};

/// One schedulable unit: query q must scan shard `shard`.
struct Task {
  std::uint32_t query = 0;
  std::uint32_t shard = 0;
};

/// Result of scheduling one batch.
struct Assignment {
  std::vector<std::vector<Task>> per_dpu;  ///< tasks to run now, by DPU
  std::vector<Task> deferred;              ///< filter buffer for next batch
  std::vector<double> predicted_load;      ///< per-DPU Eq. 15 load estimate
};

/// Greedy replica-aware scheduler over a fixed layout.
class RuntimeScheduler {
 public:
  RuntimeScheduler(const DataLayout& layout, const SchedulerParams& params)
      : layout_(layout), params_(params) {}

  /// Predicted latency of one task on its shard (Eq. 15), priced for the
  /// task's precision rung.
  double task_cost(const Shard& shard, bool q4) const {
    const double x = static_cast<double>(shard.size());
    return q4 ? params_.l_lut_q4 + x * params_.l_calu_q4 + x * params_.l_sortu
              : params_.l_lut + x * params_.l_calu + x * params_.l_sortu;
  }
  /// Full-precision convenience overload.
  double task_cost(const Shard& shard) const { return task_cost(shard, false); }

  /// Build the batch assignment for queries [begin, end) of `probes`.
  /// `probes[q]` lists the clusters query q must visit (Task.query keeps the
  /// global index q, not q - begin); `carried` holds tasks the filter
  /// deferred from the previous batch (scheduled first). When `final_batch`
  /// is true the filter is disabled so nothing is left behind. Taking a
  /// range keeps per-chunk scheduling O(chunk), not O(nq): callers hand over
  /// the full probe table once instead of rebuilding an nq-sized copy per
  /// chunk. `precision`, when given, maps global query id -> rung (nonzero
  /// = q4) so Eq. 15 prices each task at its actual rung; null prices
  /// everything full-precision.
  Assignment schedule(const std::vector<std::vector<std::uint32_t>>& probes,
                      std::size_t begin, std::size_t end,
                      const std::vector<Task>& carried, bool final_batch,
                      const std::vector<std::uint8_t>* precision = nullptr) const;

  /// Whole-table convenience overload: schedule(probes, 0, probes.size(), ...).
  Assignment schedule(const std::vector<std::vector<std::uint32_t>>& probes,
                      const std::vector<Task>& carried, bool final_batch,
                      const std::vector<std::uint8_t>* precision = nullptr) const {
    return schedule(probes, 0, probes.size(), carried, final_batch, precision);
  }

  const SchedulerParams& params() const { return params_; }
  SchedulerParams& params() { return params_; }

 private:
  const DataLayout& layout_;
  SchedulerParams params_;
};

}  // namespace drim

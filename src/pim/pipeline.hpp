#pragma once
// Virtual-timeline pipeline simulator for cross-batch overlap (ISSUE 5).
//
// Models the three resources a batch step contends on:
//   * the host<->DPU link — half-duplex and shared, so every transfer
//     (query push, result pull, CL staging) occupies it exclusively; modeled
//     as a sorted list of busy intervals with earliest-gap placement, so a
//     short push can slot in between two pulls,
//   * the DPU array — barrier-synchronized launches make it exclusive per
//     batch, so a scalar free pointer suffices,
//   * the host CPU doing coarse clustering / merge — also a scalar.
//
// Plus `depth` MRAM staging slots (ping/pong for depth 2): batch i reuses
// slot i % depth and therefore cannot start transferring in before the
// previous occupant's results have been pulled out.
//
// The timeline only reorders *modeled timestamps*; the caller still executes
// batches strictly in order, so results are bit-identical at every depth. The
// engine runs every step through it; depth 1 is a single staging slot.

#include <cstddef>
#include <utility>
#include <vector>

namespace drim {

// Durations of one batch's stages, as reported by the platform.
struct PipelineStageTimes {
  double transfer_in_seconds = 0.0;
  double launch_overhead_seconds = 0.0;
  double compute_seconds = 0.0;  // max over DPUs (barrier launch)
  double transfer_out_seconds = 0.0;
  double host_seconds = 0.0;  // host-side CL/merge, overlaps device stages
};

// Absolute placement of one batch on the virtual timeline.
struct PipelineSchedule {
  double submit_seconds = 0.0;  // when the caller handed us the batch
  double pre_start = 0.0;       // CL-on-PIM pre-launch (0-length when unused)
  double pre_end = 0.0;
  double in_start = 0.0;  // query push on the host link
  double in_end = 0.0;
  double compute_start = 0.0;  // launch overhead + kernel on the DPU array
  double compute_end = 0.0;
  double out_start = 0.0;  // result pull on the host link
  double out_end = 0.0;
  double host_start = 0.0;  // host CL / serve-side work
  double host_end = 0.0;
  double done_seconds = 0.0;  // completion: max(out_end, host_end), monotone
};

class PipelineTimeline {
 public:
  explicit PipelineTimeline(std::size_t depth);

  std::size_t depth() const { return depth_; }

  // Opens batch `step_index` (slots assigned round-robin internally).
  // `pre_seconds` is an optional pre-launch occupying both the link and the
  // DPU array before the main stages (CL-on-PIM locate). Returns the
  // absolute start of that pre-launch (== the batch floor when pre is 0) so
  // the caller can trace it before running the main launch.
  double begin_batch(double submit_seconds, double pre_seconds);

  // Closes the batch opened by begin_batch, placing its stages. Must be
  // called exactly once per begin_batch, in order.
  PipelineSchedule finish_batch(const PipelineStageTimes& stages);

  // Completion time of the most recently finished batch (monotone).
  double last_done_seconds() const { return last_done_; }
  // Total time the host link / DPU array were held. The makespan can never
  // be smaller than either: both resources are exclusive.
  double link_busy_seconds() const { return link_busy_; }
  double dpu_busy_seconds() const { return dpu_busy_; }

  void reset();

 private:
  // Places `duration` on the link at the earliest gap starting at or after
  // `earliest`; returns the chosen start.
  double reserve_link(double earliest, double duration);
  void prune_link();

  std::size_t depth_;
  std::size_t next_index_ = 0;
  std::vector<double> slot_free_;  // per staging slot: prior occupant's out_end
  std::vector<std::pair<double, double>> link_;  // sorted busy intervals
  double dpu_free_ = 0.0;
  double host_free_ = 0.0;
  double last_done_ = 0.0;
  double link_busy_ = 0.0;
  double dpu_busy_ = 0.0;

  // In-flight batch between begin_batch and finish_batch.
  bool open_ = false;
  std::size_t slot_ = 0;
  double submit_ = 0.0;
  double pre_start_ = 0.0;
  double pre_end_ = 0.0;
};

}  // namespace drim

#pragma once
// The DPU-side kernels of DRIM-ANN. One search launch processes a DPU's
// task list for the batch; each task runs the cluster-searching pipeline on
// one shard: RC (residual), LC (ADC LUT build, multiplier-less via the
// square LUT), DC (code scan), TS (top-k). The kernel only touches MRAM
// through the DpuContext DMA API (2 KB max per transfer, as on real UPMEM)
// and keeps its working set within the 64 KB WRAM budget; every operation
// charges cycles into the per-phase counters that drive batch timing and
// Fig. 8.
//
// Each kernel has ONE body in kernels.cpp, templated on a compile-time
// "move bytes" policy and instantiated twice: run_* (SimPimPlatform) moves
// bytes and runs the arithmetic; charge_* (AnalyticPimPlatform) bills the
// same DMA transfers and instruction tallies without reading a byte of MRAM,
// with WRAM buffers, arithmetic and heap pushes compiled out. Instruction
// cycles follow a deterministic policy shared by both instantiations:
//   - LC squaring bills one square-LUT lookup per dimension (the broadcast
//     table is sized to cover the full operand range), or one multiply per
//     dimension in the Fig. 10a ablation with the table off;
//   - TS heap maintenance bills the Eq. 15 amortized shape (one threshold
//     compare per point plus 0.25 * log2(k) sift compares/WRAM swaps),
//     not the data-dependent accept sequence.
// As a result every per-phase counter — instruction cycles, DMA cycles,
// MRAM bytes, multiply count — is EXACTLY equal between the functional and
// analytic platforms for the same schedule, which is what lets the tracing
// layer (src/obs) treat either platform's counters as ground truth. Pinned
// by tests/test_platforms.cpp and tests/test_kernel_paths.cpp.

#include <algorithm>
#include <cstdint>
#include <span>

#include "pim/dpu.hpp"

namespace drim {

/// Maximum bytes per single MRAM DMA transfer (UPMEM hardware limit).
inline constexpr std::size_t kMaxDmaBytes = 2048;

/// The DC phase's MRAM transfer schedule over a shard's packed codes: whole
/// codes per <= kMaxDmaBytes block. Calls fn(block_offset, block_bytes) for
/// every block, in stream order: the search kernel's code-block loop.
template <typename Fn>
inline void for_each_code_block(std::size_t codes_bytes, std::size_t code_size,
                                Fn&& fn) {
  const std::size_t codes_per_block = kMaxDmaBytes / code_size;
  std::size_t streamed = 0;
  while (streamed < codes_bytes) {
    const std::size_t block_bytes =
        std::min(codes_per_block * code_size, codes_bytes - streamed);
    fn(streamed, block_bytes);
    streamed += block_bytes;
  }
}

/// Where one shard's data lives in this DPU's MRAM, plus the shard's
/// tombstone view for the current index snapshot. `dead` (host-side flags
/// for the whole cluster, indexed by `begin + local point`) is null when the
/// cluster has no tombstones — the common case, in which the kernel bills
/// zero liveness cost, keeping read-only runs bit-identical in both results
/// and cycle counters. With tombstones, dead entries are skipped BEFORE the
/// bounded top-k so they can never evict live candidates, and both kernel
/// instantiations bill the same flag-stream DMA and per-point compare.
struct ShardRegion {
  std::size_t codes_offset = 0;
  std::size_t ids_offset = 0;
  std::uint32_t size = 0;      ///< points physically in the shard
  std::uint32_t cluster = 0;   ///< original cluster id (selects the centroid)
  std::uint32_t begin = 0;     ///< shard's first position in the cluster list
  std::uint32_t live = 0;      ///< live points (== size when dead is null)
  const std::uint8_t* dead = nullptr;  ///< cluster tombstone flags, or null

  // Quantization-ladder fields (valid only when SearchKernelArgs::has_q4):
  // where the shard's packed 4-bit codes live, and the cluster's residual
  // scalar-quantization shift. Host-side catalog state, never byte-billed.
  std::size_t q4_codes_offset = 0;
  std::uint32_t q4_shift = 0;
};

/// Points of a shard that can surface in results.
inline std::uint32_t shard_live_points(const ShardRegion& s) {
  return s.dead ? s.live : s.size;
}

/// One task in the per-DPU task list: scan shard `shard_slot` for the query
/// staged at `query_slot`. The top bit of query_slot carries the task's
/// precision rung (set = 4-bit path), keeping sizeof(KernelTask) == 8 so the
/// task-list DMA charge — and with it the full-rung batch timing — is
/// bit-identical whether or not the ladder is compiled into the launch.
struct KernelTask {
  std::uint32_t query_slot = 0;
  std::uint32_t shard_slot = 0;
};

/// Rung flag inside KernelTask::query_slot.
inline constexpr std::uint32_t kTaskQ4Bit = 0x80000000u;

/// Staged query slot with the rung bit stripped.
inline std::uint32_t task_query_slot(const KernelTask& t) {
  return t.query_slot & ~kTaskQ4Bit;
}
/// True when the task runs on the packed 4-bit rung.
inline bool task_is_q4(const KernelTask& t) {
  return (t.query_slot & kTaskQ4Bit) != 0;
}

/// Result entry written back to MRAM: (distance, base-point id).
struct KernelHit {
  std::uint32_t dist = 0xFFFFFFFFu;
  std::uint32_t id = 0xFFFFFFFFu;
};

/// Static geometry + offsets shared by all tasks of a launch.
struct SearchKernelArgs {
  // Index geometry.
  std::uint32_t dim = 0;
  std::uint32_t m = 0;
  std::uint32_t cb = 0;
  std::uint32_t code_size = 0;
  bool wide_codes = false;
  std::uint32_t k = 10;  ///< hits kept per task

  // Broadcast regions.
  std::size_t sq_lut_offset = 0;     ///< uint32[sq_lut_entries]
  std::uint32_t sq_lut_max_abs = 0;  ///< table covers |x| <= max_abs
  std::size_t codebooks_offset = 0;  ///< int16[m * cb * dsub]
  std::size_t centroids_offset = 0;  ///< int16[nlist * dim]

  // Per-batch staging regions (per DPU).
  std::size_t queries_offset = 0;  ///< int16[num_query_slots * dim]
  std::size_t output_offset = 0;   ///< KernelHit[num_tasks * k]

  // Toggle for the Fig. 10a ablation: with the conversion off, LC squares
  // via 32-cycle multiplies instead of square-LUT lookups.
  bool use_square_lut = true;

  // ---- quantization ladder (4-bit rung; DESIGN.md §15) ----
  // With has_q4 set, tasks flagged kTaskQ4Bit scan the packed 4-bit codes:
  // LC builds cb4-entry sub-LUTs from the coarse codebooks, folds them into
  // a per-pair 256-entry byte LUT (one lookup scores two subquantizers),
  // and DC streams code_size_q4-byte codes — half the MRAM traffic, twice
  // the codes per DMA. Q4 result rows carry LOCAL shard indices (no
  // per-winner id resolution on the DPU); the host reranks them exactly.
  bool has_q4 = false;
  std::uint32_t cb4 = 0;                ///< coarse entries per subquantizer
  std::uint32_t code_size_q4 = 0;       ///< packed bytes per point
  std::size_t codebooks_q4_offset = 0;  ///< int16[m * cb4 * dsub]
};

/// WRAM working-set bytes of a search launch: query / centroid / residual
/// scratch, one LUT, one codebook slice, one code block, the square table
/// and one k-entry heap, plus the q4 rung's coarse sub-LUT and pair-LUT
/// buffers when `q4` (the launch carries a 4-bit task). The one accounting:
/// the kernel checks it at launch and the engine checks it up front.
std::size_t search_wram_bytes(const SearchKernelArgs& args, bool q4);

/// Execute the search kernel for `tasks` against the shard catalog, one task
/// per iteration. Results for task t land at output_offset + t * k *
/// sizeof(KernelHit), sorted ascending, padded with sentinel (0xFFFFFFFF)
/// entries when a shard has fewer than k points.
void run_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                       std::span<const ShardRegion> shards,
                       std::span<const KernelTask> tasks);

/// Charge-only instantiation of the search kernel (AnalyticPimPlatform):
/// same WRAM budget check, DMA schedule and instruction tallies as
/// run_search_kernel, without touching MRAM or computing a result.
void charge_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                          std::span<const ShardRegion> shards,
                          std::span<const KernelTask> tasks);

/// Arguments for the optional cluster-locating kernel (CL on the PIM instead
/// of the host — the placement alternative of Section III-B). Each DPU owns
/// a contiguous range of centroids and reports, per query, its local top-P
/// candidates; the host merges the per-DPU lists. DRIM-ANN defaults to
/// host-side CL because this path pays P * num_dpus result traffic over the
/// thin host link per query — the ablation makes that trade measurable.
struct ClKernelArgs {
  std::uint32_t dim = 0;
  std::uint32_t nprobe = 0;         ///< candidates kept per query (P)
  std::uint32_t centroid_begin = 0; ///< first centroid this DPU owns
  std::uint32_t centroid_count = 0; ///< how many it owns
  std::size_t centroids_offset = 0; ///< int16[nlist * dim] (broadcast region)
  std::size_t queries_offset = 0;   ///< int16[num_queries * dim]
  std::uint32_t num_queries = 0;
  std::size_t output_offset = 0;    ///< KernelHit[num_queries * nprobe]

  std::size_t sq_lut_offset = 0;
  std::uint32_t sq_lut_max_abs = 0;
  bool use_square_lut = true;
};

/// Run cluster locating on one DPU: L2 distance from every staged query to
/// every owned centroid, keeping the top-nprobe (global centroid ids) per
/// query. Output rows are sentinel-padded like the search kernel's.
void run_cl_kernel(DpuContext& ctx, const ClKernelArgs& args);

/// Charge-only instantiation of the CL kernel (AnalyticPimPlatform).
void charge_cl_kernel(DpuContext& ctx, const ClKernelArgs& args);

}  // namespace drim

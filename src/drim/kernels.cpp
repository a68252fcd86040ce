#include "drim/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace drim {
namespace {

// ---- the compile-time "move bytes" policy ----
// Each kernel below is written once, templated on kMove. kMove = true is the
// functional instantiation (SimPimPlatform): DMA moves bytes between the
// simulated MRAM and WRAM buffers and the arithmetic runs. kMove = false is
// the charge-only instantiation (AnalyticPimPlatform): every DMA bills the
// same transfer size without touching MRAM, and the WRAM buffers, byte
// moves, arithmetic and heap pushes compile out. Both bill every cycle
// through the same statements, so their per-phase counters are equal by
// construction.

/// A WRAM working buffer of n elements; empty (never allocated) in the
/// charge-only instantiation, which touches no data.
template <bool kMove, typename T>
std::vector<T> wram_buffer(std::size_t n) {
  return std::vector<T>(kMove ? n : 0);
}

/// One MRAM -> WRAM DMA of `bytes` into `dst` (billed only when !kMove).
template <bool kMove>
void dma_read(DpuContext& ctx, std::size_t offset, void* dst, std::size_t bytes) {
  if constexpr (kMove) {
    ctx.mram_read(offset, {static_cast<std::uint8_t*>(dst), bytes});
  } else {
    ctx.charge_mram_read(bytes);
  }
}

/// DMA a region in <= kMaxDmaBytes chunks (UPMEM transfers are bounded).
/// With kMove = false the same transfers are billed and `dst` is unused.
template <bool kMove>
void mram_read_chunked(DpuContext& ctx, std::size_t offset, void* dst,
                       std::size_t bytes) {
  std::size_t done = 0;
  while (done < bytes) {
    const std::size_t n = std::min(kMaxDmaBytes, bytes - done);
    if constexpr (kMove) {
      ctx.mram_read(offset + done, {static_cast<std::uint8_t*>(dst) + done, n});
    } else {
      ctx.charge_mram_read(n);
    }
    done += n;
  }
}

// ---- instruction-charging policy ----
// Instruction cycles follow a deterministic, schedule/layout-determined
// policy, which is what keeps the two instantiations' counters equal (pinned
// by tests/test_platforms.cpp):
//   - squaring bills one square-LUT lookup per dimension when the square
//     table is enabled (the broadcast table is sized to cover the full
//     operand range, so this is the real cost), or a 32-cycle multiply per
//     dimension with the table off (the Fig. 10a ablation);
//   - TS heap maintenance bills the Eq. 15 amortized l_sortu shape instead
//     of the data-dependent accept sequence.
// The arithmetic itself stays exact and data-dependent; only the charges
// follow the policy.

/// Squaring cost for `total` (residual - codeword) differences.
void charge_square_stream(DpuContext& ctx, bool use_lut, std::uint64_t total) {
  if (use_lut) {
    ctx.charge_sq_lut_lookups(total);
  } else {
    ctx.charge_muls(total);
  }
}

/// Amortized TS heap-maintenance cycles for `points` pushes into a k-deep
/// heap: the Eq. 15 l_sortu shape (threshold compare always; 0.25 * log2(k)
/// of the sift's compare + two WRAM accesses on the amortized accept path).
std::uint64_t amortized_topk_cycles(const DpuInstructionCosts& c, std::uint64_t points,
                                    std::uint32_t k) {
  double log2k = 1.0;
  for (std::uint32_t v = k; v > 1; v >>= 1) log2k += 1.0;
  const double sift = 0.25 * log2k * (static_cast<double>(c.cmp) + 2.0 * c.wram_access);
  return points * c.cmp +
         static_cast<std::uint64_t>(static_cast<double>(points) * sift + 0.5);
}

/// Fixed-capacity WRAM top-k (binary max-heap on distance, ties by id).
/// Maintenance cycles are billed in bulk via amortized_topk_cycles, not per
/// push, so the charge stream does not depend on the data.
class WramTopK {
 public:
  explicit WramTopK(std::uint32_t k) : k_(k) { heap_.reserve(k); }

  void push(std::uint32_t dist, std::uint32_t local_idx) {
    if (heap_.size() >= k_ && !less(dist, local_idx, heap_.front())) return;
    if (heap_.size() < k_) {
      heap_.push_back({dist, local_idx});
      std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
      heap_.back() = {dist, local_idx};
      std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
    }
  }

  /// Ascending (distance, local index) pairs.
  std::vector<KernelHit> sorted() {
    std::sort_heap(heap_.begin(), heap_.end(), heap_cmp);
    return heap_;
  }

 private:
  static bool heap_cmp(const KernelHit& a, const KernelHit& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  bool less(std::uint32_t dist, std::uint32_t idx, const KernelHit& h) const {
    if (dist != h.dist) return dist < h.dist;
    return idx < h.id;
  }

  std::uint32_t k_;
  std::vector<KernelHit> heap_;  // .id holds the local point index until ids
                                 // are resolved at task end
};

template <bool kMove>
void cl_kernel(DpuContext& ctx, const ClKernelArgs& args) {
  const std::size_t dim = args.dim;
  if (args.num_queries == 0 || args.centroid_count == 0) return;

  const std::size_t wram =
      dim * 2 + dim * 2 + args.nprobe * sizeof(KernelHit) +
      (args.use_square_lut ? (args.sq_lut_max_abs + 1) * sizeof(std::uint32_t) : 0);
  check_wram_budget(ctx.config(), wram);
  std::vector<std::int16_t> query = wram_buffer<kMove, std::int16_t>(dim);
  std::vector<std::int16_t> centroid = wram_buffer<kMove, std::int16_t>(dim);

  ctx.set_phase(Phase::CL);
  const std::uint64_t cnt = args.centroid_count;
  for (std::uint32_t q = 0; q < args.num_queries; ++q) {
    dma_read<kMove>(ctx, args.queries_offset + q * dim * 2, query.data(), dim * 2);
    WramTopK topk(kMove ? args.nprobe : 0);
    for (std::uint32_t c = 0; c < args.centroid_count; ++c) {
      const std::uint32_t global = args.centroid_begin + c;
      dma_read<kMove>(ctx, args.centroids_offset + global * dim * 2, centroid.data(),
                      dim * 2);
      if constexpr (kMove) {
        std::uint32_t dist = 0;
        for (std::size_t d = 0; d < dim; ++d) {
          const std::int32_t diff = static_cast<std::int32_t>(query[d]) - centroid[d];
          const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
          dist += a * a;
        }
        topk.push(dist, global);
      }
    }
    // Per dim of each centroid: subtract + square + accumulate (the Eq. 1
    // "3D - 1" shape), then the amortized top-nprobe maintenance.
    charge_square_stream(ctx, args.use_square_lut, cnt * dim);
    ctx.charge_adds(cnt * 2 * dim);
    ctx.charge_cycles(amortized_topk_cycles(ctx.config().costs, cnt, args.nprobe));
    if constexpr (kMove) {
      std::vector<KernelHit> hits = topk.sorted();
      hits.resize(args.nprobe, KernelHit{});
      ctx.mram_write(args.output_offset + q * args.nprobe * sizeof(KernelHit),
                     {reinterpret_cast<const std::uint8_t*>(hits.data()),
                      args.nprobe * sizeof(KernelHit)});
    } else {
      ctx.charge_mram_write(args.nprobe * sizeof(KernelHit));
    }
  }
}

/// The search kernel: one task per iteration.
template <bool kMove>
void search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                   std::span<const ShardRegion> shards,
                   std::span<const KernelTask> tasks) {
  const std::size_t dim = args.dim;
  const std::size_t m = args.m;
  const std::size_t cb = args.cb;
  const std::size_t dsub = dim / m;
  const std::size_t cb4 = args.cb4;
  const std::size_t pairs = args.has_q4 ? (m + 1) / 2 : 0;

  const auto is_q4 = [&](const KernelTask& t) { return args.has_q4 && task_is_q4(t); };
  // q4 buffers join the working set only when this launch actually carries
  // a 4-bit task.
  const bool any_q4 = std::any_of(tasks.begin(), tasks.end(), is_q4);

  // ---- WRAM working set (checked against the 64 KB budget) ----
  check_wram_budget(ctx.config(), search_wram_bytes(args, any_q4));
  std::vector<std::int16_t> query = wram_buffer<kMove, std::int16_t>(dim);
  std::vector<std::int16_t> centroid = wram_buffer<kMove, std::int16_t>(dim);
  std::vector<std::int32_t> residual = wram_buffer<kMove, std::int32_t>(dim);
  std::vector<std::uint32_t> lut = wram_buffer<kMove, std::uint32_t>(m * cb);
  std::vector<std::int16_t> cb_slice = wram_buffer<kMove, std::int16_t>(cb * dsub);
  std::vector<std::uint8_t> code_block = wram_buffer<kMove, std::uint8_t>(kMaxDmaBytes);
  std::vector<std::uint32_t> lut4 = wram_buffer<kMove, std::uint32_t>(any_q4 ? m * cb4 : 0);
  std::vector<std::uint32_t> pair_lut =
      wram_buffer<kMove, std::uint32_t>(any_q4 ? pairs * 256 : 0);

  // The task list arrives by DMA.
  ctx.set_phase(Phase::AUX);
  ctx.charge_cycles(tasks.size() * 4);  // task decode / loop control
  ctx.charge_mram_read(tasks.size() * sizeof(KernelTask));

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const KernelTask& task = tasks[t];
    const ShardRegion& shard = shards[task.shard_slot];
    const bool q4 = is_q4(task);
    const std::uint32_t shift = q4 ? shard.q4_shift : 0;

    // ---- RC: residual = query - centroid ----
    ctx.set_phase(Phase::RC);
    dma_read<kMove>(ctx, args.centroids_offset + shard.cluster * dim * 2,
                    centroid.data(), dim * 2);
    dma_read<kMove>(ctx, args.queries_offset + task_query_slot(task) * dim * 2,
                    query.data(), dim * 2);
    if constexpr (kMove) {
      for (std::size_t d = 0; d < dim; ++d) {
        residual[d] = static_cast<std::int32_t>(query[d]) - centroid[d];
      }
    }
    ctx.charge_adds(dim);
    ctx.charge_wram(dim * 3);  // two loads + one store per component
    if (q4) {
      // Per-cluster residual scalar quantization: arithmetic shift, one
      // cycle per component (billed even at shift 0 so the q4 charge
      // stream is schedule-determined, not data-determined).
      if constexpr (kMove) {
        for (std::size_t d = 0; d < dim; ++d) residual[d] >>= shift;
      }
      ctx.charge_cycles(dim);
    }

    ctx.set_phase(Phase::LC);
    if (!q4) {
      // ---- LC: lut[sub][e] = sum_d (residual - codeword)^2 ----
      for (std::size_t sub = 0; sub < m; ++sub) {
        mram_read_chunked<kMove>(ctx, args.codebooks_offset + sub * cb * dsub * 2,
                                 cb_slice.data(), cb * dsub * 2);
        if constexpr (kMove) {
          const std::int32_t* res = residual.data() + sub * dsub;
          std::uint32_t* lrow = lut.data() + sub * cb;
          for (std::size_t e = 0; e < cb; ++e) {
            const std::int16_t* cw = cb_slice.data() + e * dsub;
            std::uint32_t acc = 0;
            for (std::size_t d = 0; d < dsub; ++d) {
              const std::int32_t diff = res[d] - cw[d];
              const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
              acc += a * a;
            }
            lrow[e] = acc;
          }
        }
        // Cost per dimension of each entry: one subtract, one square
        // (square-table lookup, or multiply in the ablation), one
        // accumulate — the paper's "M x 3 - 1 per subvector" accounting —
        // plus one WRAM store per finished entry.
        charge_square_stream(ctx, args.use_square_lut, cb * dsub);
        ctx.charge_adds(cb * 2 * dsub);
        ctx.charge_wram(cb);
      }
    } else {
      // ---- LC (q4): coarse sub-LUTs, folded into per-pair byte LUTs ----
      // Each subquantizer scores against its cb4-entry coarse codebook
      // (shifted into the cluster's residual scale) into lut4; pairs of
      // sub-LUTs then fold into 256-entry pair LUTs, so DC scores two
      // subquantizers per byte lookup.
      for (std::size_t sub = 0; sub < m; ++sub) {
        mram_read_chunked<kMove>(ctx, args.codebooks_q4_offset + sub * cb4 * dsub * 2,
                                 cb_slice.data(), cb4 * dsub * 2);
        if constexpr (kMove) {
          const std::int32_t* res = residual.data() + sub * dsub;
          std::uint32_t* lrow = lut4.data() + sub * cb4;
          for (std::size_t e = 0; e < cb4; ++e) {
            const std::int16_t* cw = cb_slice.data() + e * dsub;
            std::uint32_t acc = 0;
            for (std::size_t d = 0; d < dsub; ++d) {
              const std::int32_t diff = res[d] - (cw[d] >> shift);
              const auto a = static_cast<std::uint32_t>(diff < 0 ? -diff : diff);
              acc += a * a;
            }
            lrow[e] = acc;
          }
        }
        ctx.charge_cycles(cb4 * dsub);  // per-component codeword shift
        charge_square_stream(ctx, args.use_square_lut, cb4 * dsub);
        ctx.charge_adds(cb4 * 2 * dsub);
        ctx.charge_wram(cb4);
      }
      for (std::size_t p = 0; p < pairs; ++p) {
        if constexpr (kMove) {
          std::uint32_t* prow = pair_lut.data() + p * 256;
          const std::uint32_t* lo_row = lut4.data() + (2 * p) * cb4;
          const std::uint32_t* hi_row =
              2 * p + 1 < m ? lut4.data() + (2 * p + 1) * cb4 : nullptr;
          for (std::size_t b = 0; b < 256; ++b) {
            const std::size_t lo = b & 0xF;
            const std::size_t hi = b >> 4;
            std::uint32_t v = lo < cb4 ? lo_row[lo] : 0;
            if (hi_row && hi < cb4) v += hi_row[hi];
            prow[b] = v;
          }
        }
        ctx.charge_adds(256);
        ctx.charge_wram(256);
      }
    }

    // ---- DC: stream the shard's codes, scoring each against the LUT. The
    // block schedule is the shared for_each_code_block iterator (whole codes
    // per block; packed q4 codes fit twice as many). ----
    const std::size_t code_size = q4 ? args.code_size_q4 : args.code_size;
    const std::size_t codes_base = q4 ? shard.q4_codes_offset : shard.codes_offset;
    const std::uint32_t kk =
        std::min<std::uint32_t>(args.k, std::max<std::uint32_t>(shard.size, 1));
    WramTopK heap(kMove ? kk : 0);
    const std::size_t codes_bytes = static_cast<std::size_t>(shard.size) * code_size;
    const std::size_t lookups = q4 ? pairs : m;
    std::uint32_t point = 0;
    for_each_code_block(codes_bytes, code_size, [&](std::size_t block_off,
                                                    std::size_t block_bytes) {
      ctx.set_phase(Phase::DC);
      dma_read<kMove>(ctx, codes_base + block_off, code_block.data(), block_bytes);
      const std::size_t points_in_block = block_bytes / code_size;
      if constexpr (kMove) {
        for (std::size_t i = 0; i < points_in_block; ++i, ++point) {
          // Tombstoned entries are skipped before the top-k push: a dead
          // point can never evict a live candidate, so the surviving
          // (dist, id) stream equals a cold rebuild of the live set.
          if (shard.dead && shard.dead[shard.begin + point]) continue;
          const std::uint8_t* code = code_block.data() + i * code_size;
          std::uint32_t dist = 0;
          if (q4) {
            for (std::size_t p = 0; p < pairs; ++p) {
              dist += pair_lut[p * 256 + code[p]];
            }
          } else {
            for (std::size_t sub = 0; sub < m; ++sub) {
              std::uint32_t entry;
              if (args.wide_codes) {
                std::uint16_t v = 0;
                std::memcpy(&v, code + sub * 2, 2);
                entry = v;
              } else {
                entry = code[sub];
              }
              dist += lut[sub * cb + entry];
            }
          }
          heap.push(dist, point);
        }
      }
      // Per point: one LUT load per (paired) lookup + the accumulate adds.
      ctx.charge_lut_lookups(points_in_block * lookups);
      ctx.charge_adds(points_in_block * (lookups - 1));
    });
    if (shard.dead) {
      // Liveness flags (host-side, one byte per point) stream alongside the
      // codes and cost one compare each. Billed only when the cluster
      // actually has tombstones, so read-only runs charge nothing extra.
      ctx.set_phase(Phase::DC);
      mram_read_chunked<false>(ctx, 0, nullptr, shard.size);
      ctx.charge_cmps(shard.size);
    }

    // ---- TS + AUX ----
    // Winners' base-point ids are resolved from the shard's id table (one
    // 4-byte read each; only live points can win), then the sentinel-padded
    // row is written to MRAM. Q4 rows skip the id reads and carry LOCAL
    // shard indices — the host rerank resolves ids while it re-scores the
    // candidates exactly.
    ctx.set_phase(Phase::TS);
    ctx.charge_cycles(amortized_topk_cycles(ctx.config().costs, shard.size, kk));

    ctx.set_phase(Phase::AUX);
    const std::size_t winners = std::min<std::size_t>(args.k, shard_live_points(shard));
    if constexpr (kMove) {
      std::vector<KernelHit> hits = heap.sorted();
      assert(hits.size() == winners);
      if (!q4) {
        for (KernelHit& h : hits) {
          ctx.mram_read_t<std::uint32_t>(shard.ids_offset + h.id * sizeof(std::uint32_t),
                                         {&h.id, 1});
        }
      }
      hits.resize(args.k, KernelHit{});  // sentinel-pad short shards
      ctx.mram_write(args.output_offset + t * args.k * sizeof(KernelHit),
                     {reinterpret_cast<const std::uint8_t*>(hits.data()),
                      args.k * sizeof(KernelHit)});
    } else {
      if (!q4) {
        for (std::size_t h = 0; h < winners; ++h) {
          ctx.charge_mram_read(sizeof(std::uint32_t));
        }
      }
      ctx.charge_mram_write(args.k * sizeof(KernelHit));
    }
  }
}

}  // namespace

std::size_t search_wram_bytes(const SearchKernelArgs& args, bool q4) {
  const std::size_t dim = args.dim;
  const std::size_t m = args.m;
  const std::size_t cb = args.cb;
  const std::size_t dsub = m > 0 ? dim / m : 0;
  const std::size_t pairs = (m + 1) / 2;
  const std::size_t sq_lut_bytes =
      args.use_square_lut ? (args.sq_lut_max_abs + 1) * sizeof(std::uint32_t) : 0;
  std::size_t bytes = dim * 2 + dim * 2 + dim * 4 + m * cb * 4 +
                      std::min(cb * dsub * 2, kMaxDmaBytes * 2) + kMaxDmaBytes +
                      sq_lut_bytes + args.k * sizeof(KernelHit);
  if (q4) bytes += m * args.cb4 * 4 + pairs * 256 * 4;
  return bytes;
}

void run_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                       std::span<const ShardRegion> shards,
                       std::span<const KernelTask> tasks) {
  search_kernel<true>(ctx, args, shards, tasks);
}

void charge_search_kernel(DpuContext& ctx, const SearchKernelArgs& args,
                          std::span<const ShardRegion> shards,
                          std::span<const KernelTask> tasks) {
  search_kernel<false>(ctx, args, shards, tasks);
}

void run_cl_kernel(DpuContext& ctx, const ClKernelArgs& args) {
  cl_kernel<true>(ctx, args);
}

void charge_cl_kernel(DpuContext& ctx, const ClKernelArgs& args) {
  cl_kernel<false>(ctx, args);
}

}  // namespace drim

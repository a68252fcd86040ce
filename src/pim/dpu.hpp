#pragma once
// Functional-plus-cost model of a single UPMEM DPU. Kernels are real C++
// code that reads and writes simulated MRAM/WRAM byte arrays — results are
// bit-exact — while every arithmetic operation and DMA transfer charges
// cycles into per-phase counters (see DESIGN.md "Functional + cost-model
// simulation"). A kernel interacts with the DPU exclusively through
// DpuContext, mirroring the UPMEM SDK programming model (mram_read /
// mram_write DMA intrinsics + WRAM scratch).
//
// Threading contract: a Dpu is NOT internally synchronized. SimPimPlatform's
// parallel run_batch assigns at most one host thread to each Dpu at a time
// (kernel run, staging push, or collection pull), which is sufficient
// because MRAM, WRAM budget, and counters are all per-DPU private state;
// cross-DPU shared state lives in SimPimPlatform and is atomic there.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "pim/perf_counters.hpp"
#include "pim/pim_config.hpp"

namespace drim {

/// One DPU's private 64 MB MRAM. A bump allocator hands out regions; reads
/// and writes are plain memcpy (costs are charged by DpuContext, which is the
/// only path kernels may use).
class Mram {
 public:
  /// Capacity is logical; backing storage grows on first touch so simulating
  /// thousands of mostly-empty 64 MB DPUs stays cheap.
  explicit Mram(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }

  /// Reserve `bytes` (8-byte aligned, as UPMEM DMA requires). Throws
  /// std::bad_alloc-like runtime_error when MRAM is exhausted.
  std::size_t alloc(std::size_t bytes);

  /// Release every allocation and zero the backing store. The engine uses
  /// this when it installs a new index snapshot: the whole static layout
  /// (codes, ids, codebooks, centroids, staging) is rebuilt from scratch,
  /// which keeps the functional simulation bit-exact while the *billed*
  /// publish cost stays the modeled delta, not the physical reload.
  void reset() {
    used_ = 0;
    std::fill(data_.begin(), data_.end(), std::uint8_t{0});
  }

  /// Host-side (transfer) access — used by SimPimPlatform, not by kernels.
  void write(std::size_t offset, std::span<const std::uint8_t> src);
  void read(std::size_t offset, std::span<std::uint8_t> dst) const;

  const std::uint8_t* raw(std::size_t offset) const { return data_.data() + offset; }
  std::uint8_t* raw(std::size_t offset) { return data_.data() + offset; }

 private:
  void ensure_backing(std::size_t end);

  std::size_t capacity_;
  std::vector<std::uint8_t> data_;  // grows lazily up to capacity_
  std::size_t used_ = 0;
};

/// Cycle-charging handle passed to kernels. All methods are cheap and
/// inlineable; kernels should batch charges (e.g. charge_adds(dsub) per
/// codeword) rather than per scalar to keep simulation fast — the counts are
/// identical either way.
class DpuContext {
 public:
  DpuContext(const PimConfig& config, Mram& mram, DpuCounters& counters)
      : cfg_(config), mram_(mram), counters_(counters) {}

  // ---- phase scoping ----
  void set_phase(Phase p) { phase_ = p; }
  Phase phase() const { return phase_; }

  // ---- compute charging ----
  void charge_adds(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.add; }
  void charge_muls(std::uint64_t n) {
    cur().instr_cycles += n * cfg_.costs.mul32;
    cur().mul_count += n;
  }
  void charge_divs(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.div32; }
  void charge_cmps(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.cmp; }
  void charge_wram(std::uint64_t n) { cur().instr_cycles += n * cfg_.costs.wram_access; }
  void charge_lut_lookups(std::uint64_t n) {
    cur().instr_cycles += n * cfg_.costs.lut_lookup;
  }
  void charge_sq_lut_lookups(std::uint64_t n) {
    cur().instr_cycles += n * cfg_.costs.sq_lut_lookup;
  }
  /// Raw cycles (e.g. loop/branch overhead estimated per iteration).
  void charge_cycles(std::uint64_t n) { cur().instr_cycles += n; }

  // ---- MRAM DMA (the only way kernels may touch MRAM, as on real UPMEM) ----
  /// DMA MRAM -> WRAM buffer.
  void mram_read(std::size_t mram_offset, std::span<std::uint8_t> dst);
  /// DMA WRAM buffer -> MRAM.
  void mram_write(std::size_t mram_offset, std::span<const std::uint8_t> src);

  /// Bill one MRAM->WRAM DMA transfer without moving bytes — the analytic
  /// kernels' path. Charges the same affine cost (fixed cycles + per-byte
  /// cycles) and byte counters as mram_read of the same size.
  void charge_mram_read(std::size_t bytes) {
    PhaseCounters& c = cur();
    c.dma_cycles += dma_cost(bytes);
    c.mram_bytes_read += bytes;
  }
  /// WRAM->MRAM billing twin of charge_mram_read.
  void charge_mram_write(std::size_t bytes) {
    PhaseCounters& c = cur();
    c.dma_cycles += dma_cost(bytes);
    c.mram_bytes_written += bytes;
  }

  /// Typed convenience readers.
  template <typename T>
  void mram_read_t(std::size_t mram_offset, std::span<T> dst) {
    mram_read(mram_offset,
              {reinterpret_cast<std::uint8_t*>(dst.data()), dst.size() * sizeof(T)});
  }
  template <typename T>
  void mram_write_t(std::size_t mram_offset, std::span<const T> src) {
    mram_write(mram_offset, {reinterpret_cast<const std::uint8_t*>(src.data()),
                             src.size() * sizeof(T)});
  }

  const PimConfig& config() const { return cfg_; }
  DpuCounters& counters() { return counters_; }

 private:
  PhaseCounters& cur() { return counters_.at(phase_); }
  double dma_cost(std::size_t bytes) const {
    return cfg_.dma_fixed_cycles + static_cast<double>(bytes) * cfg_.dma_cycles_per_byte;
  }

  const PimConfig& cfg_;
  Mram& mram_;
  DpuCounters& counters_;
  Phase phase_ = Phase::AUX;
};

/// One DPU: MRAM plus the counters of the most recent kernel run. WRAM is
/// modeled as a capacity budget checked by kernels (their working buffers
/// live on the simulation host's stack/heap for speed, but may not exceed
/// wram_bytes; kernels assert this via check_wram_budget).
class Dpu {
 public:
  explicit Dpu(const PimConfig& config)
      : cfg_(config), mram_(config.mram_bytes) {}

  Mram& mram() { return mram_; }
  const Mram& mram() const { return mram_; }

  DpuCounters& counters() { return counters_; }
  const DpuCounters& counters() const { return counters_; }
  void reset_counters() { counters_.reset(); }

  /// Make a kernel context bound to this DPU.
  DpuContext context() { return DpuContext(cfg_, mram_, counters_); }

  /// Seconds this DPU's last-accumulated counters take to execute: compute
  /// stream (scaled by pipeline IPC and the Fig. 13 compute_scale knob)
  /// overlapped with the DMA engine; the slower stream dominates, matching
  /// the paper's t = max(C / (F * PE), IO / BW) model shape.
  double execution_seconds() const;

  /// Seconds attributable to one phase (same overlap model, phase-local).
  double phase_seconds(Phase p) const;

 private:
  const PimConfig& cfg_;
  Mram mram_;
  DpuCounters counters_;
};

/// Throws std::runtime_error if a kernel's WRAM working set exceeds the
/// configured 64 KB budget. Call with the sum of all live WRAM buffers.
void check_wram_budget(const PimConfig& config, std::size_t bytes);

}  // namespace drim

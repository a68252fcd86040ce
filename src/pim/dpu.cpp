#include "pim/dpu.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace drim {

std::size_t Mram::alloc(std::size_t bytes) {
  // Compared against the 8-aligned free space, so no rounding or sum wraps.
  if (bytes > ((capacity_ - used_) & ~std::size_t{7})) {
    throw std::runtime_error("MRAM exhausted: need " + std::to_string(bytes) +
                             " bytes, free " + std::to_string(capacity_ - used_));
  }
  const std::size_t offset = used_;
  used_ += (bytes + 7) & ~std::size_t{7};
  return offset;
}

namespace {

/// Split [offset, offset + size) at page boundaries: calls
/// fn(page, offset_in_page, offset_in_span, length) for each piece in order.
template <typename Fn>
void for_each_page_piece(std::size_t offset, std::size_t size, Fn&& fn) {
  for (std::size_t done = 0; done < size;) {
    const std::size_t at = offset + done;
    const std::size_t in_page = at % Mram::kPageBytes;
    const std::size_t n = std::min(Mram::kPageBytes - in_page, size - done);
    fn(at / Mram::kPageBytes, in_page, done, n);
    done += n;
  }
}

}  // namespace

void Mram::write(std::size_t offset, std::span<const std::uint8_t> src) {
  if (!in_range(offset, src.size())) {
    throw std::runtime_error("MRAM write out of range");
  }
  for_each_page_piece(offset, src.size(), [&](std::size_t page, std::size_t in_page,
                                              std::size_t done, std::size_t n) {
    if (page >= pages_.size()) pages_.resize(page + 1);
    if (!pages_[page]) {
      pages_[page] = std::make_unique<std::uint8_t[]>(kPageBytes);  // zeroed
      ++backed_pages_;
    }
    std::memcpy(pages_[page].get() + in_page, src.data() + done, n);
  });
}

void Mram::read(std::size_t offset, std::span<std::uint8_t> dst) const {
  if (!in_range(offset, dst.size())) {
    throw std::runtime_error("MRAM read out of range");
  }
  for_each_page_piece(offset, dst.size(), [&](std::size_t page, std::size_t in_page,
                                              std::size_t done, std::size_t n) {
    if (page < pages_.size() && pages_[page]) {
      std::memcpy(dst.data() + done, pages_[page].get() + in_page, n);
    } else {
      std::memset(dst.data() + done, 0, n);  // never written: reads as zeros
    }
  });
}

void DpuContext::mram_read(std::size_t mram_offset, std::span<std::uint8_t> dst) {
  mram_.read(mram_offset, dst);
  PhaseCounters& c = cur();
  c.dma_cycles += dma_cost(dst.size());
  c.mram_bytes_read += dst.size();
}

void DpuContext::mram_write(std::size_t mram_offset, std::span<const std::uint8_t> src) {
  mram_.write(mram_offset, src);
  PhaseCounters& c = cur();
  c.dma_cycles += dma_cost(src.size());
  c.mram_bytes_written += src.size();
}

double Dpu::execution_seconds() const {
  const double compute =
      static_cast<double>(counters_.total_instr_cycles()) / cfg_.effective_ipc();
  const double dma = counters_.total_dma_cycles();
  // compute_scale accelerates the instruction stream only (Fig. 13 scales
  // "computational ability"); the DMA engine speed is a memory property.
  const double compute_sec = compute * cfg_.seconds_per_cycle();
  const double dma_sec = dma / cfg_.frequency_hz;
  return std::max(compute_sec, dma_sec);
}

double Dpu::phase_seconds(Phase p) const {
  const PhaseCounters& c = counters_.at(p);
  const double compute_sec =
      static_cast<double>(c.instr_cycles) / cfg_.effective_ipc() * cfg_.seconds_per_cycle();
  const double dma_sec = c.dma_cycles / cfg_.frequency_hz;
  return std::max(compute_sec, dma_sec);
}

void check_wram_budget(const PimConfig& config, std::size_t bytes) {
  if (bytes > config.wram_bytes) {
    throw std::runtime_error("WRAM budget exceeded: kernel needs " +
                             std::to_string(bytes) + " bytes, WRAM is " +
                             std::to_string(config.wram_bytes));
  }
}

}  // namespace drim

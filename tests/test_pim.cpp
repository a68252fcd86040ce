// Tests for the UPMEM simulator substrate: MRAM allocation/access, DMA cost
// accounting, the pipeline/DMA overlap timing model, host-link transfer
// billing, and barrier-batch semantics.

#include <gtest/gtest.h>

#include "pim/dpu.hpp"
#include "pim/energy_model.hpp"
#include "pim/pim_system.hpp"

namespace drim {
namespace {

PimConfig small_config(std::size_t dpus = 4) {
  PimConfig cfg;
  cfg.num_dpus = dpus;
  cfg.mram_bytes = 1 << 20;  // 1 MB keeps tests light
  return cfg;
}

TEST(Mram, AllocAlignsTo8) {
  Mram m(1024);
  EXPECT_EQ(m.alloc(3), 0u);
  EXPECT_EQ(m.alloc(5), 8u);
  EXPECT_EQ(m.used(), 16u);
}

TEST(Mram, AllocThrowsWhenExhausted) {
  Mram m(64);
  m.alloc(60);
  EXPECT_THROW(m.alloc(16), std::runtime_error);
}

TEST(Mram, WriteReadRoundTrip) {
  Mram m(1024);
  const std::uint8_t src[4] = {1, 2, 3, 4};
  m.write(100, src);
  std::uint8_t dst[4] = {};
  m.read(100, dst);
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[3], 4);
}

TEST(Mram, UntouchedReadsAsZero) {
  Mram m(1 << 20);
  std::uint8_t dst[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  m.read((1 << 20) - 8, dst);  // never written, backing never grown
  for (std::uint8_t b : dst) EXPECT_EQ(b, 0);
}

TEST(Mram, OutOfRangeThrows) {
  Mram m(64);
  std::uint8_t buf[16] = {};
  EXPECT_THROW(m.write(60, buf), std::runtime_error);
  EXPECT_THROW(m.read(60, {buf, 16}), std::runtime_error);
}

TEST(PimConfig, EffectiveIpcSaturatesAtPipelineDepth) {
  PimConfig cfg;
  cfg.pipeline_depth = 11;
  cfg.tasklets = 11;
  EXPECT_DOUBLE_EQ(cfg.effective_ipc(), 1.0);
  cfg.tasklets = 22;
  EXPECT_DOUBLE_EQ(cfg.effective_ipc(), 1.0);
  cfg.tasklets = 1;
  EXPECT_NEAR(cfg.effective_ipc(), 1.0 / 11.0, 1e-12);
}

TEST(PimConfig, MramStreamBandwidthNearMeasured) {
  // The DMA model should land near the published ~630 MB/s achievable rate.
  const PimConfig cfg;
  EXPECT_NEAR(cfg.mram_stream_bandwidth(), 633e6, 30e6);
}

TEST(DpuContext, ChargesInstructionCosts) {
  const PimConfig cfg = small_config();
  Dpu dpu(cfg);
  DpuContext ctx = dpu.context();
  ctx.set_phase(Phase::LC);
  ctx.charge_adds(10);
  ctx.charge_muls(2);
  ctx.charge_lut_lookups(5);
  const PhaseCounters& c = dpu.counters().at(Phase::LC);
  EXPECT_EQ(c.instr_cycles, 10u * 1 + 2u * 32 + 5u * 2);
  EXPECT_EQ(c.mul_count, 2u);
}

TEST(DpuContext, DmaCostAffineInSize) {
  const PimConfig cfg = small_config();
  Dpu dpu(cfg);
  DpuContext ctx = dpu.context();
  ctx.set_phase(Phase::DC);
  std::vector<std::uint8_t> buf(1000);
  ctx.mram_read(0, buf);
  const PhaseCounters& c = dpu.counters().at(Phase::DC);
  EXPECT_DOUBLE_EQ(c.dma_cycles, cfg.dma_fixed_cycles + 1000 * cfg.dma_cycles_per_byte);
  EXPECT_EQ(c.mram_bytes_read, 1000u);
}

TEST(Dpu, ExecutionTimeIsMaxOfComputeAndDma) {
  const PimConfig cfg = small_config();
  Dpu dpu(cfg);
  {
    DpuContext ctx = dpu.context();
    ctx.set_phase(Phase::DC);
    ctx.charge_adds(450);  // 450 compute cycles
  }
  const double compute_only = dpu.execution_seconds();
  EXPECT_NEAR(compute_only, 450.0 / cfg.effective_ipc() / 450e6, 1e-12);

  {
    DpuContext ctx = dpu.context();
    ctx.set_phase(Phase::DC);
    std::vector<std::uint8_t> big(2048);
    for (int i = 0; i < 1000; ++i) ctx.mram_read(0, big);  // DMA-dominated
  }
  const double with_dma = dpu.execution_seconds();
  EXPECT_GT(with_dma, compute_only * 100);
}

TEST(Dpu, ComputeScaleAcceleratesInstructionStreamOnly) {
  PimConfig fast = small_config();
  fast.compute_scale = 2.0;
  PimConfig base = small_config();

  Dpu d1(base), d2(fast);
  for (Dpu* d : {&d1, &d2}) {
    DpuContext ctx = d->context();
    ctx.set_phase(Phase::LC);
    ctx.charge_muls(1000);  // compute-bound
  }
  EXPECT_NEAR(d1.execution_seconds() / d2.execution_seconds(), 2.0, 1e-9);

  Dpu d3(base), d4(fast);
  for (Dpu* d : {&d3, &d4}) {
    DpuContext ctx = d->context();
    ctx.set_phase(Phase::DC);
    std::vector<std::uint8_t> buf(2048);
    for (int i = 0; i < 100; ++i) ctx.mram_read(0, buf);  // DMA-bound
  }
  EXPECT_NEAR(d3.execution_seconds() / d4.execution_seconds(), 1.0, 1e-9);
}

TEST(WramBudget, ThrowsWhenExceeded) {
  const PimConfig cfg;
  EXPECT_NO_THROW(check_wram_budget(cfg, 64 << 10));
  EXPECT_THROW(check_wram_budget(cfg, (64 << 10) + 1), std::runtime_error);
}

TEST(PimSystem, SymmetricAllocStaysAligned) {
  SimPimPlatform sys(small_config(4));
  const std::size_t a = sys.alloc_symmetric(100);
  const std::size_t b = sys.alloc_symmetric(100);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 104u);
}

TEST(PimSystem, BroadcastReachesAllDpus) {
  SimPimPlatform sys(small_config(4));
  const std::size_t off = sys.alloc_symmetric(4);
  const std::uint8_t payload[4] = {7, 8, 9, 10};
  sys.broadcast(off, payload);
  for (std::size_t d = 0; d < 4; ++d) {
    std::uint8_t got[4] = {};
    sys.pull(d, off, got);
    EXPECT_EQ(got[2], 9);
  }
}

TEST(PimSystem, BatchTimeIsSlowestDpu) {
  SimPimPlatform sys(small_config(3));
  const BatchResult r = sys.run_batch([](std::size_t d, DpuContext& ctx) {
    ctx.set_phase(Phase::DC);
    ctx.charge_adds((d + 1) * 1000);  // DPU 2 is slowest
  });
  EXPECT_DOUBLE_EQ(r.dpu_seconds, r.per_dpu_seconds[2]);
  EXPECT_GT(r.per_dpu_seconds[2], r.per_dpu_seconds[0]);
}

TEST(PimSystem, TransferBytesBilledAtHostLink) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;  // 1 KB/s for easy math
  SimPimPlatform sys(cfg);
  const std::size_t off = sys.alloc_symmetric(512);
  std::vector<std::uint8_t> data(500);
  sys.push(0, off, data);
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_NEAR(r.transfer_in_seconds, 0.5, 1e-9);

  // Second batch has nothing pending.
  const BatchResult r2 = sys.run_batch([](std::size_t, DpuContext&) {});
  EXPECT_DOUBLE_EQ(r2.transfer_in_seconds, 0.0);
}

TEST(PimSystem, CollectBillsTransferOut) {
  PimConfig cfg = small_config(2);
  cfg.host_link_bytes_per_sec = 1000.0;
  SimPimPlatform sys(cfg);
  sys.alloc_symmetric(256);
  std::vector<std::uint8_t> out(250);
  const BatchResult r = sys.run_batch([](std::size_t, DpuContext&) {},
                                      [&]() { sys.pull(0, 0, out); });
  EXPECT_NEAR(r.transfer_out_seconds, 0.25, 1e-9);
}

TEST(PimSystem, CountersResetBetweenBatches) {
  SimPimPlatform sys(small_config(1));
  sys.run_batch([](std::size_t, DpuContext& ctx) {
    ctx.set_phase(Phase::LC);
    ctx.charge_adds(100);
  });
  sys.run_batch([](std::size_t, DpuContext& ctx) {
    ctx.set_phase(Phase::LC);
    ctx.charge_adds(1);
  });
  EXPECT_EQ(sys.dpu(0).counters().at(Phase::LC).instr_cycles, 1u);
}

TEST(EnergyModel, DimmCountRoundsUp) {
  EnergyModel e;
  PimConfig cfg;
  cfg.num_dpus = 129;
  cfg.dpus_per_dimm = 128;
  EXPECT_EQ(e.dimms(cfg), 2u);
}

TEST(EnergyModel, EnergyScalesWithTime) {
  EnergyModel e;
  const PimConfig cfg;  // 64 DPUs -> 1 DIMM
  EXPECT_NEAR(e.pim_energy_joules(cfg, 2.0), 2.0 * (13.92 + 100.0), 1e-9);
  EXPECT_NEAR(e.cpu_energy_joules(2.0), 250.0, 1e-9);
}

}  // namespace
}  // namespace drim

#include "backend/drim_backend.hpp"

#include <chrono>
#include <stdexcept>

namespace drim {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DrimBackend::DrimBackend(const IvfPqIndex& index, const FloatMatrix& sample_queries,
                         const DrimEngineOptions& options)
    : owned_(std::make_unique<DrimAnnEngine>(index, sample_queries, options)),
      engine_(owned_.get()) {}

DrimBackend::DrimBackend(IndexSnapshot snapshot, const FloatMatrix& sample_queries,
                         const DrimEngineOptions& options)
    : owned_(std::make_unique<DrimAnnEngine>(std::move(snapshot), sample_queries,
                                             options)),
      engine_(owned_.get()) {}

DrimBackend::DrimBackend(DrimAnnEngine& engine) : engine_(&engine) {}

std::string DrimBackend::name() const {
  return "drim-" + pim_platform_name(engine_->options().platform);
}

std::vector<std::vector<Neighbor>> DrimBackend::search(const FloatMatrix& queries,
                                                       std::size_t k,
                                                       std::size_t nprobe) {
  const double t0 = now_seconds();
  auto results = engine_->search(queries, k, nprobe, &stats_);  // resets stats_
  host_wall_seconds_ = now_seconds() - t0;
  return results;
}

void DrimBackend::reset_stream() {
  state_ = SearchBatchState{};
  stats_ = DrimSearchStats{};
  host_wall_seconds_ = 0.0;
  handle_base_ = 0;
  live_handles_ = 0;
}

void DrimBackend::maybe_compact() {
  if (live_handles_ == 0 && state_.idle() && !state_.quantized.empty()) {
    handle_base_ += static_cast<std::uint32_t>(state_.quantized.size());
    state_ = SearchBatchState{};
  }
}

std::uint32_t DrimBackend::enqueue(std::span<const float> query, std::size_t k,
                                   std::size_t nprobe) {
  return enqueue(query, k, nprobe, Precision::kFull);
}

std::uint32_t DrimBackend::enqueue(std::span<const float> query, std::size_t k,
                                   std::size_t nprobe, Precision precision) {
  maybe_compact();
  const std::uint32_t internal =
      engine_->enqueue_query(state_, query, k, nprobe, precision);
  ++live_handles_;
  return handle_base_ + internal;
}

std::uint32_t DrimBackend::enqueue_routed(std::span<const float> query, std::size_t k,
                                          std::span<const std::uint32_t> probes) {
  return enqueue_routed(query, k, probes, Precision::kFull);
}

std::uint32_t DrimBackend::enqueue_routed(std::span<const float> query, std::size_t k,
                                          std::span<const std::uint32_t> probes,
                                          Precision precision) {
  maybe_compact();
  const std::uint32_t internal =
      engine_->enqueue_query_routed(state_, query, k, probes, precision);
  ++live_handles_;
  return handle_base_ + internal;
}

BackendStepStats DrimBackend::step(std::size_t max_queries, bool flush) {
  const double t0 = now_seconds();
  const BatchStepStats s = engine_->search_batch(state_, max_queries, flush, &stats_);
  host_wall_seconds_ += now_seconds() - t0;
  BackendStepStats out;
  out.step_seconds = s.step_seconds;
  out.host_seconds = s.host_cl_seconds + s.host_rerank_seconds;
  out.pre_seconds = s.cl_pim_seconds;
  out.exec_seconds = s.pim_batch_seconds;
  out.fresh_queries = s.fresh_queries;
  out.tasks = s.tasks;
  out.deferred = s.deferred;
  out.submit_seconds = s.submit_seconds;
  out.complete_seconds = s.complete_seconds;
  return out;
}

void DrimBackend::flush_stream() {
  const double t0 = now_seconds();
  while (!state_.idle()) {
    engine_->search_batch(state_, 0, true, &stats_);
  }
  host_wall_seconds_ += now_seconds() - t0;
}

double DrimBackend::stage_snapshot(const IndexSnapshot& snapshot,
                                   const PublishDelta& delta) {
  flush_stream();
  return engine_->apply_snapshot(snapshot, delta);
}

double DrimBackend::stage_relayout() {
  flush_stream();
  return engine_->replan_layout();
}

bool DrimBackend::finished(std::uint32_t handle) const {
  if (handle < handle_base_) return true;  // compacted away: taken long ago
  return state_.finished(handle - handle_base_);
}

std::vector<Neighbor> DrimBackend::take_results(std::uint32_t handle) {
  if (handle < handle_base_) {
    throw std::logic_error("DrimBackend: results for this handle already taken");
  }
  if (live_handles_ > 0) --live_handles_;
  return state_.take_results(handle - handle_base_);
}

double DrimBackend::estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                           std::size_t k) const {
  return engine_->estimate_batch_seconds(num_queries, nprobe, k);
}

BackendStats DrimBackend::stats() const {
  BackendStats out;
  out.total_seconds = stats_.total_seconds;
  out.host_wall_seconds = host_wall_seconds_;
  out.queries = stats_.queries;
  out.batches = stats_.batches;
  out.tasks = stats_.tasks;
  out.batch_seconds = stats_.batch_seconds;
  return out;
}

}  // namespace drim

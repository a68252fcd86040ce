#include "traced_backend.hpp"

namespace perfbench {

using drim::BackendStats;
using drim::BackendStepStats;
using drim::Neighbor;

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanLog::open(const char* name, int level, std::int64_t request,
                           std::int64_t step) {
  Span s;
  s.name = name;
  s.level = level;
  s.request = request;
  s.step = step;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int64_t>(spans_.size());
  open_.push_back(id);
  s.start_s = now();
  spans_.push_back(s);
  return id;
}

void SpanLog::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
  open_.pop_back();
}

void SpanLog::write_json(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.level
        << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"step\":" << s.step << "}}";
  }
  out << "\n]}\n";
}

TracedBackend::TracedBackend(std::unique_ptr<drim::AnnBackend> inner, SpanLog* log,
                             int level)
    : inner_(std::move(inner)), log_(log), level_(level) {}

std::string TracedBackend::name() const { return inner_->name(); }

std::vector<std::vector<Neighbor>> TracedBackend::search(const drim::FloatMatrix& queries,
                                                         std::size_t k,
                                                         std::size_t nprobe) {
  ScopedSpan span(log_, "search", level_);
  return inner_->search(queries, k, nprobe);
}

void TracedBackend::reset_stream() {
  ScopedSpan span(log_, "reset_stream", level_);
  inner_->reset_stream();
  steps_.clear();
  handles_.clear();
  publishes_.clear();
}

std::uint32_t TracedBackend::record_enqueue(std::uint32_t handle, const float* query) {
  if (handles_.size() <= handle) handles_.resize(handle + 1);
  HandleRecord& h = handles_[handle];
  h.query = query;
  h.consume_step = static_cast<std::int64_t>(steps_.size());
  h.version = inner_->snapshot_version();
  return handle;
}

std::uint32_t TracedBackend::enqueue(std::span<const float> query, std::size_t k,
                                     std::size_t nprobe) {
  ScopedSpan span(log_, "enqueue", level_);
  return record_enqueue(inner_->enqueue(query, k, nprobe), query.data());
}

std::uint32_t TracedBackend::enqueue(std::span<const float> query, std::size_t k,
                                     std::size_t nprobe, drim::Precision precision) {
  ScopedSpan span(log_, "enqueue", level_);
  return record_enqueue(inner_->enqueue(query, k, nprobe, precision), query.data());
}

bool TracedBackend::supports_routed_enqueue() const {
  return inner_->supports_routed_enqueue();
}

std::uint32_t TracedBackend::enqueue_routed(std::span<const float> query, std::size_t k,
                                            std::span<const std::uint32_t> probes) {
  ScopedSpan span(log_, "enqueue_routed", level_);
  return record_enqueue(inner_->enqueue_routed(query, k, probes), query.data());
}

std::uint32_t TracedBackend::enqueue_routed(std::span<const float> query, std::size_t k,
                                            std::span<const std::uint32_t> probes,
                                            drim::Precision precision) {
  ScopedSpan span(log_, "enqueue_routed", level_);
  return record_enqueue(inner_->enqueue_routed(query, k, probes, precision),
                        query.data());
}

double TracedBackend::locate_cost_seconds(std::size_t num_queries) const {
  return inner_->locate_cost_seconds(num_queries);
}

std::vector<drim::ShardHealth> TracedBackend::shard_health() const {
  return inner_->shard_health();
}

BackendStepStats TracedBackend::step(std::size_t max_queries, bool flush) {
  ScopedSpan span(log_, "step", level_, -1, static_cast<std::int64_t>(steps_.size()));
  const BackendStepStats s = inner_->step(max_queries, flush);
  steps_.push_back(s);
  return s;
}

std::size_t TracedBackend::pipeline_depth() const { return inner_->pipeline_depth(); }

void TracedBackend::set_step_start(double submit_seconds) {
  inner_->set_step_start(submit_seconds);
}

bool TracedBackend::has_deferred() const { return inner_->has_deferred(); }

std::size_t TracedBackend::deferred_count() const { return inner_->deferred_count(); }

void TracedBackend::set_trace(drim::obs::TraceRecorder* trace) { inner_->set_trace(trace); }

bool TracedBackend::finished(std::uint32_t handle) const {
  ScopedSpan span(log_, "finished", level_, handle);
  const bool done = inner_->finished(handle);
  if (done && handle < handles_.size() && handles_[handle].finish_step < 0) {
    handles_[handle].finish_step = static_cast<std::int64_t>(steps_.size()) - 1;
  }
  return done;
}

std::vector<Neighbor> TracedBackend::take_results(std::uint32_t handle) {
  ScopedSpan span(log_, "take_results", level_, handle);
  std::vector<Neighbor> out = inner_->take_results(handle);
  if (handle < handles_.size()) {
    HandleRecord& h = handles_[handle];
    if (h.finish_step < 0) h.finish_step = static_cast<std::int64_t>(steps_.size()) - 1;
    h.results = out;
    h.taken = true;
  }
  return out;
}

std::size_t TracedBackend::stream_depth() const { return inner_->stream_depth(); }

double TracedBackend::estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                             std::size_t k) const {
  requested_estimate_ = inner_->estimate_batch_seconds(num_queries, nprobe, k);
  return requested_estimate_;
}

BackendStats TracedBackend::stats() const { return inner_->stats(); }

bool TracedBackend::supports_updates() const { return inner_->supports_updates(); }

double TracedBackend::stage_snapshot(const drim::IndexSnapshot& snapshot,
                                     const drim::PublishDelta& delta) {
  ScopedSpan span(log_, "stage_snapshot", level_);
  publishes_.emplace_back(snapshot.version, ops_applied_ != nullptr ? *ops_applied_ : 0);
  return inner_->stage_snapshot(snapshot, delta);
}

double TracedBackend::stage_relayout() {
  ScopedSpan span(log_, "stage_relayout", level_);
  return inner_->stage_relayout();
}

std::uint64_t TracedBackend::snapshot_version() const {
  return inner_->snapshot_version();
}

}  // namespace perfbench

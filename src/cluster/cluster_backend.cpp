#include "cluster/cluster_backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "backend/drim_backend.hpp"
#include "drim/host_exact.hpp"
#include "drim/layout.hpp"

namespace drim::cluster {

ClusterBackend::ClusterBackend(const IvfPqIndex& index, ShardPlan plan,
                               std::vector<std::unique_ptr<AnnBackend>> shards,
                               const ClusterOptions& options)
    : snapshot_(make_root_snapshot(index)),
      plan_(std::move(plan)),
      shards_(std::move(shards)),
      opts_(options) {
  if (shards_.empty() || shards_.size() != plan_.num_shards()) {
    throw std::invalid_argument(
        "ClusterBackend: shard backend count must match the plan's num_shards");
  }
  if (shards_.size() > 1) {
    for (const auto& s : shards_) {
      if (!s->supports_routed_enqueue()) {
        throw std::invalid_argument(
            "ClusterBackend: shard backend '" + s->name() +
            "' does not support routed enqueue (required with > 1 shard)");
      }
    }
  }
  drained_.assign(shards_.size(), 0);
  health_.resize(shards_.size());
  for (std::uint32_t s = 0; s < shards_.size(); ++s) health_[s].shard = s;
}

std::string ClusterBackend::name() const {
  return "cluster" + std::to_string(shards_.size()) + "-" + shards_[0]->name();
}

std::size_t ClusterBackend::pipeline_depth() const {
  // Passthrough inherits the shard's depth so pipelined serving stays
  // bit-identical; routed steps are cross-shard barriers, depth 1 at the
  // router (shards still pipeline internally within one router step).
  return passthrough() ? shards_[0]->pipeline_depth() : 1;
}

void ClusterBackend::set_step_start(double submit_seconds) {
  if (passthrough()) {
    shards_[0]->set_step_start(submit_seconds);
    return;
  }
  submit_hint_seconds_ = submit_seconds;
}

bool ClusterBackend::has_deferred() const {
  for (const auto& s : shards_) {
    if (s->has_deferred()) return true;
  }
  return false;
}

std::size_t ClusterBackend::deferred_count() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->deferred_count();
  return total;
}

void ClusterBackend::set_trace(obs::TraceRecorder* trace) {
  trace_ = trace;
  if (passthrough()) {
    shards_[0]->set_trace(trace);
    return;
  }
  // Routed mode: shards get the recorder too, but the router brackets each
  // shard's step with its lane prefix (step_shard), so one recorder renders
  // one lane group per shard.
  for (auto& s : shards_) s->set_trace(trace);
}

void ClusterBackend::reset_stream() {
  for (auto& s : shards_) s->reset_stream();
  queries_.clear();
  next_query_ = 0;
  handle_base_ = 0;
  live_handles_ = 0;
  stats_ = BackendStats{};
  submit_hint_seconds_ = 0.0;
  last_complete_seconds_ = 0.0;
  // Drain flags survive: they model node state, not stream state. Health
  // counters restart with the stream, like BackendStats.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    health_[s] = ShardHealth{};
    health_[s].shard = s;
    health_[s].draining = drained_[s] != 0;
  }
}

void ClusterBackend::maybe_compact() {
  bool idle = next_query_ == queries_.size();
  if (live_handles_ == 0 && idle && !queries_.empty() && !has_deferred()) {
    handle_base_ += static_cast<std::uint32_t>(queries_.size());
    queries_.clear();
    next_query_ = 0;
  }
}

std::uint32_t ClusterBackend::enqueue(std::span<const float> query, std::size_t k,
                                      std::size_t nprobe) {
  return enqueue(query, k, nprobe, Precision::kFull);
}

std::uint32_t ClusterBackend::enqueue(std::span<const float> query, std::size_t k,
                                      std::size_t nprobe, Precision precision) {
  if (passthrough()) return shards_[0]->enqueue(query, k, nprobe, precision);
  maybe_compact();
  RouterQuery q;
  q.values.assign(query.begin(), query.end());
  q.k = static_cast<std::uint32_t>(k);
  q.nprobe = static_cast<std::uint32_t>(nprobe);
  q.precision = precision;
  queries_.push_back(std::move(q));
  ++live_handles_;
  return handle_base_ + static_cast<std::uint32_t>(queries_.size() - 1);
}

double ClusterBackend::fallback_scan_group(std::uint32_t cluster, std::uint32_t k,
                                           std::span<RouterQuery*> members) {
  if (members.empty()) return 0.0;
  if (!fallback_data_) fallback_data_ = std::make_unique<PimIndexData>(index());
  const auto size = static_cast<std::uint32_t>(fallback_data_->cluster_size(cluster));
  if (size == 0) return 0.0;
  Shard whole;
  whole.cluster = cluster;
  whole.begin = 0;
  whole.end = size;
  std::vector<std::vector<std::int16_t>> q16(members.size());
  std::vector<std::vector<KernelHit>> rows(members.size());
  std::vector<HostFusedTask> tasks(members.size());
  for (std::size_t w = 0; w < members.size(); ++w) {
    q16[w] = PimIndexData::quantize_query(members[w]->values);
    rows[w].resize(k);
    tasks[w] = {q16[w].data(), rows[w].data()};
  }
  host_search_tasks_fused_into(*fallback_data_, tasks, whole, k, /*q4=*/false,
                               snapshot_.dead_flags(cluster));
  for (std::size_t w = 0; w < members.size(); ++w) {
    for (const KernelHit& h : rows[w]) {
      if (h.id == 0xFFFFFFFFu && h.dist == 0xFFFFFFFFu) continue;  // sentinel pad
      members[w]->fallback_hits.push_back({static_cast<float>(h.dist), h.id});
    }
  }
  // Streaming exact scan over the cluster's codes + ids at host bandwidth —
  // pulled ONCE for the whole group; the members past the first are the
  // duplicate pulls this path used to pay.
  const double bytes = static_cast<double>(size) *
                       (static_cast<double>(fallback_data_->code_size()) +
                        sizeof(std::uint32_t));
  stats_.dc_bytes_saved +=
      static_cast<std::uint64_t>(members.size() - 1) * static_cast<std::uint64_t>(bytes);
  return bytes / opts_.fallback_bytes_per_sec;
}

BackendStepStats ClusterBackend::step_shard(std::uint32_t s, bool flush, double now_s) {
  if (trace_ != nullptr) {
    trace_->set_lane_prefix("shard" + std::to_string(s) + "/");
    trace_->set_now(now_s);
  }
  const BackendStepStats st = shards_[s]->step(0, flush);
  if (trace_ != nullptr) trace_->set_lane_prefix({});
  return st;
}

BackendStepStats ClusterBackend::step(std::size_t max_queries, bool flush) {
  if (passthrough()) return shards_[0]->step(max_queries, flush);

  const std::size_t begin = next_query_;
  const std::size_t end = max_queries == 0
                              ? queries_.size()
                              : std::min(queries_.size(), begin + max_queries);
  next_query_ = end;

  BackendStepStats out;
  out.fresh_queries = end - begin;

  // ---- route fresh queries ----
  // Per-shard load on the dispatch horizon: the backlog already queued on
  // the shard (deferred tasks x its mean task cost — the Eq. 15 queue-depth
  // term) plus everything dispatched within this step.
  std::vector<double> load(shards_.size(), 0.0);
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    load[s] = static_cast<double>(shards_[s]->deferred_count()) *
              plan_.mean_cluster_cost(s);
  }
  std::vector<std::vector<std::uint32_t>> per_shard_probes(shards_.size());
  // Ownerless (query, cluster) visits collected during routing; scanned
  // AFTER the loop grouped by (cluster, k) so each dead cluster's block is
  // pulled once per step, not once per query.
  struct FallbackVisit {
    std::uint32_t cluster;
    std::uint32_t k;
    std::uint32_t query;  // index into queries_
  };
  std::vector<FallbackVisit> fallback_visits;
  double fallback_seconds = 0.0;
  std::size_t fallback_tasks = 0;
  for (std::size_t qi = begin; qi < end; ++qi) {
    RouterQuery& q = queries_[qi];
    const std::vector<std::uint32_t> probes =
        index().locate_clusters(q.values, q.nprobe);
    for (auto& list : per_shard_probes) list.clear();
    for (std::uint32_t c : probes) {
      const auto& owners = plan_.owners(c);
      if (opts_.hedge_replicas && owners.size() > 1) {
        // Hedge: every live owner serves the cluster; the merge's replica
        // dedup collapses the identical hits.
        bool any = false;
        for (std::uint32_t s : owners) {
          if (drained_[s]) continue;
          per_shard_probes[s].push_back(c);
          load[s] += plan_.cluster_cost(c);
          any = true;
        }
        if (any) continue;
      } else {
        // Load-aware dispatch: least-loaded live owner, lowest id on ties.
        std::uint32_t best = 0;
        double best_load = 1e300;
        bool found = false;
        for (std::uint32_t s : owners) {
          if (drained_[s]) continue;
          if (load[s] < best_load) {
            best_load = load[s];
            best = s;
            found = true;
          }
        }
        if (found) {
          per_shard_probes[best].push_back(c);
          load[best] += plan_.cluster_cost(c);
          continue;
        }
      }
      // No live owner: degrade to the host-side exact scan so the query
      // still completes with full recall. Attributed to the first (drained)
      // owner's health row; the scan itself runs coalesced after routing.
      fallback_visits.push_back({c, q.k, static_cast<std::uint32_t>(qi)});
      ++fallback_tasks;
      if (!owners.empty()) ++health_[owners.front()].fallback_tasks;
    }
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (per_shard_probes[s].empty()) continue;
      const std::uint32_t handle =
          shards_[s]->enqueue_routed(q.values, q.k, per_shard_probes[s], q.precision);
      q.parts.emplace_back(s, handle);
      ++health_[s].dispatched_queries;
      health_[s].dispatched_tasks += per_shard_probes[s].size();
      out.tasks += per_shard_probes[s].size();
    }
    q.dispatched = true;
  }

  // ---- coalesced drain fallback ----
  // Group the ownerless visits by (cluster, k) in discovery order (stable:
  // independent of thread count) and scan each group once. Merges sort and
  // dedup, so hit-append order never affects results.
  if (!fallback_visits.empty()) {
    std::stable_sort(fallback_visits.begin(), fallback_visits.end(),
                     [](const FallbackVisit& a, const FallbackVisit& b) {
                       if (a.cluster != b.cluster) return a.cluster < b.cluster;
                       return a.k < b.k;
                     });
    std::vector<RouterQuery*> members;
    for (std::size_t i = 0; i < fallback_visits.size();) {
      std::size_t j = i;
      members.clear();
      while (j < fallback_visits.size() &&
             fallback_visits[j].cluster == fallback_visits[i].cluster &&
             fallback_visits[j].k == fallback_visits[i].k) {
        members.push_back(&queries_[fallback_visits[j].query]);
        ++j;
      }
      fallback_seconds += fallback_scan_group(fallback_visits[i].cluster,
                                              fallback_visits[i].k, members);
      i = j;
    }
  }

  // ---- barrier-step the shards ----
  // Every shard with queued work steps, drained ones included: drain blocks
  // new dispatches, never work already accepted (zero dropped queries).
  const double step_start =
      std::max(last_complete_seconds_, submit_hint_seconds_);
  const double trace_now = trace_ != nullptr ? trace_->now() : 0.0;
  double exec_seconds = 0.0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const BackendStepStats st = step_shard(s, flush, trace_now);
    exec_seconds = std::max(exec_seconds, st.step_seconds);
    out.deferred += st.deferred;
    health_[s].busy_seconds += st.step_seconds;
    health_[s].queue_tasks = shards_[s]->deferred_count();
    health_[s].draining = drained_[s] != 0;
  }

  // Router host work (cluster location for the fresh queries, billed once
  // at the front-end, plus any fallback scans) overlaps shard execution.
  const double host_seconds =
      shards_[0]->locate_cost_seconds(end - begin) + fallback_seconds;
  out.host_seconds = host_seconds;
  out.exec_seconds = exec_seconds;
  out.step_seconds = std::max(host_seconds, exec_seconds);
  out.tasks += fallback_tasks;
  out.submit_seconds = step_start;
  out.complete_seconds = step_start + out.step_seconds;
  last_complete_seconds_ = out.complete_seconds;
  if (trace_ != nullptr) trace_->set_now(trace_now + out.step_seconds);

  stats_.total_seconds += out.step_seconds;
  stats_.queries += out.fresh_queries;
  stats_.tasks += out.tasks;
  ++stats_.batches;
  stats_.batch_seconds.push_back(out.step_seconds);
  return out;
}

bool ClusterBackend::finished(std::uint32_t handle) const {
  if (passthrough()) return shards_[0]->finished(handle);
  if (handle < handle_base_) return true;  // compacted away: taken long ago
  const RouterQuery& q = queries_[handle - handle_base_];
  if (!q.dispatched) return false;
  for (const auto& [s, h] : q.parts) {
    if (!shards_[s]->finished(h)) return false;
  }
  return true;
}

std::vector<Neighbor> ClusterBackend::take_results(std::uint32_t handle) {
  if (passthrough()) return shards_[0]->take_results(handle);
  if (handle < handle_base_) {
    throw std::logic_error("ClusterBackend: results for this handle already taken");
  }
  RouterQuery& q = queries_[handle - handle_base_];
  if (q.taken) {
    throw std::logic_error("ClusterBackend: results for this handle already taken");
  }
  // Deterministic merge: concatenate the partials in fixed (dispatch) order,
  // sort under the Neighbor total order, and collapse replica duplicates —
  // hedged owners scan identical cluster data, so a duplicate id always
  // carries an identical distance and lands adjacent after the sort. The
  // result is independent of shard enumeration order and thread count.
  std::vector<Neighbor> merged = std::move(q.fallback_hits);
  for (const auto& [s, h] : q.parts) {
    const std::vector<Neighbor> part = shards_[s]->take_results(h);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const Neighbor& a, const Neighbor& b) {
                             return a.id == b.id && a.dist == b.dist;
                           }),
               merged.end());
  if (merged.size() > q.k) merged.resize(q.k);
  q.taken = true;
  q.values.clear();
  q.values.shrink_to_fit();
  q.parts.clear();
  if (live_handles_ > 0) --live_handles_;
  return merged;
}

std::size_t ClusterBackend::stream_depth() const {
  if (passthrough()) return shards_[0]->stream_depth();
  return queries_.size();
}

std::vector<std::vector<Neighbor>> ClusterBackend::search(const FloatMatrix& queries,
                                                          std::size_t k,
                                                          std::size_t nprobe) {
  if (passthrough()) return shards_[0]->search(queries, k, nprobe);
  reset_stream();
  std::vector<std::uint32_t> handles;
  handles.reserve(queries.count());
  for (std::size_t qi = 0; qi < queries.count(); ++qi) {
    handles.push_back(enqueue(queries.row(qi), k, nprobe));
  }
  const std::size_t chunk = opts_.search_batch_size;
  while (next_query_ < queries_.size()) {
    step(chunk, /*flush=*/false);
  }
  while (has_deferred()) step(0, /*flush=*/true);
  std::vector<std::vector<Neighbor>> results;
  results.reserve(handles.size());
  for (std::uint32_t h : handles) results.push_back(take_results(h));
  return results;
}

double ClusterBackend::estimate_batch_seconds(std::size_t num_queries,
                                              std::size_t nprobe, std::size_t k) const {
  if (passthrough()) {
    return shards_[0]->estimate_batch_seconds(num_queries, nprobe, k);
  }
  // Bottleneck shard: each per-shard estimate already scales by the shard's
  // ownership share (its layout only enumerates owned clusters), so the max
  // is the barrier step's expected critical path.
  double worst = 0.0;
  for (const auto& s : shards_) {
    worst = std::max(worst, s->estimate_batch_seconds(num_queries, nprobe, k));
  }
  return worst;
}

BackendStats ClusterBackend::stats() const {
  if (passthrough()) return shards_[0]->stats();
  BackendStats out = stats_;
  for (const auto& s : shards_) out.host_wall_seconds += s->stats().host_wall_seconds;
  return out;
}

std::vector<ShardHealth> ClusterBackend::shard_health() const {
  if (passthrough()) return {};
  std::vector<ShardHealth> out = health_;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    out[s].draining = drained_[s] != 0;
    out[s].queue_tasks = shards_[s]->deferred_count();
  }
  return out;
}

bool ClusterBackend::supports_updates() const {
  for (const auto& s : shards_) {
    if (!s->supports_updates()) return false;
  }
  return true;
}

void ClusterBackend::flush_all() {
  const double trace_now = trace_ != nullptr ? trace_->now() : 0.0;
  bool again = true;
  while (again) {
    again = false;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]->has_deferred()) continue;
      step_shard(s, true, trace_now);
      again = true;
    }
  }
}

double ClusterBackend::stage_snapshot(const IndexSnapshot& snapshot,
                                      const PublishDelta& delta) {
  if (passthrough()) {
    const double cost = shards_[0]->stage_snapshot(snapshot, delta);
    snapshot_ = snapshot;
    fallback_data_.reset();
    return cost;
  }
  // Dispatched partials flush through the current version first: queries
  // admitted before the publish point keep old-version answers, exactly as
  // the single-node backends guarantee.
  flush_all();
  // Children of online splits inherit their parents' owners, so routing
  // reaches them without a full re-plan. The guard makes re-application of
  // an already-extended delta a no-op.
  for (const SplitRecord& sr : delta.splits) {
    if (sr.child == plan_.nlist()) {
      plan_.add_split_child(sr.parent, snapshot.index->list(sr.parent).size(),
                            snapshot.index->list(sr.child).size());
    }
  }
  double cost = 0.0;
  for (auto& s : shards_) cost = std::max(cost, s->stage_snapshot(snapshot, delta));
  snapshot_ = snapshot;
  fallback_data_.reset();
  return cost;
}

double ClusterBackend::stage_relayout() {
  if (passthrough()) return shards_[0]->stage_relayout();
  flush_all();
  double cost = 0.0;
  for (auto& s : shards_) cost = std::max(cost, s->stage_relayout());
  return cost;
}

void ClusterBackend::stash_partials(std::uint32_t s) {
  for (RouterQuery& q : queries_) {
    if (q.taken) continue;
    auto it = q.parts.begin();
    while (it != q.parts.end()) {
      if (it->first == s) {
        const std::vector<Neighbor> part = shards_[s]->take_results(it->second);
        q.fallback_hits.insert(q.fallback_hits.end(), part.begin(), part.end());
        it = q.parts.erase(it);
      } else {
        ++it;
      }
    }
  }
}

ClusterBackend::RecoveryReport ClusterBackend::recover_shard(std::uint32_t failed) {
  if (passthrough()) {
    throw std::logic_error(
        "ClusterBackend: recovery needs a multi-shard cluster");
  }
  if (failed >= shards_.size()) {
    throw std::invalid_argument("ClusterBackend: shard id out of range");
  }
  if (!drained_[failed]) {
    throw std::logic_error(
        "ClusterBackend: recover_shard requires the shard to be drained first");
  }
  if (!shard_factory_) {
    throw std::logic_error(
        "ClusterBackend: recovery needs a shard factory (set_shard_factory)");
  }
  bool any_live = false;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (!drained_[s]) {
      any_live = true;
      break;
    }
  }
  if (!any_live) {
    throw std::logic_error("ClusterBackend: no live shard to recover onto");
  }

  // Every dispatched partial must be final before a survivor rebuild kills
  // its shard-local handles.
  flush_all();

  RecoveryReport rep;
  std::vector<std::uint8_t> rebuild(shards_.size(), 0);
  const std::size_t bytes_per_point = index().code_size() + sizeof(std::uint32_t);
  // add_owner keeps planned_load() current, so successive re-homes spread
  // across survivors instead of piling onto one.
  const std::vector<double>& load = plan_.planned_load();
  for (std::uint32_t c = 0; c < plan_.nlist(); ++c) {
    const auto& owners = plan_.owners(c);
    if (std::find(owners.begin(), owners.end(), failed) == owners.end()) continue;
    bool has_live_owner = false;
    for (std::uint32_t s : owners) {
      if (!drained_[s]) {
        has_live_owner = true;
        break;
      }
    }
    if (has_live_owner) continue;
    // Least-loaded live survivor, lowest id on ties.
    std::uint32_t best = 0;
    double best_load = 1e300;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (drained_[s]) continue;
      if (load[s] < best_load) {
        best_load = load[s];
        best = s;
      }
    }
    plan_.add_owner(c, best);
    rebuild[best] = 1;
    ++rep.clusters_rehomed;
    rep.moved_bytes += index().list(c).size() * bytes_per_point;
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    if (!rebuild[s]) continue;
    stash_partials(s);
    shards_[s] = shard_factory_(s, snapshot_, plan_.owned_mask(s));
    if (trace_ != nullptr) shards_[s]->set_trace(trace_);
    ++rep.rebuilt_shards;
  }
  // The degraded path is closed — every cluster has a live owner again — so
  // the fallback counters return to zero.
  for (auto& h : health_) h.fallback_tasks = 0;
  rep.seconds =
      static_cast<double>(rep.moved_bytes) / opts_.fallback_bytes_per_sec;
  return rep;
}

void ClusterBackend::set_shard_drained(std::uint32_t shard, bool drained) {
  if (passthrough()) {
    throw std::logic_error(
        "ClusterBackend: cannot drain the only shard of a single-shard cluster");
  }
  if (shard >= shards_.size()) {
    throw std::invalid_argument("ClusterBackend: shard id out of range");
  }
  drained_[shard] = drained ? 1 : 0;
  health_[shard].draining = drained;
}

std::unique_ptr<AnnBackend> make_cluster_backend(
    BackendKind kind, const IvfPqIndex& index, const FloatMatrix& sample_queries,
    const DrimEngineOptions& engine_options, const ClusterOptions& cluster_options,
    const CpuBackendOptions& cpu_options) {
  const std::size_t S = cluster_options.num_shards;
  if (S == 0) {
    throw std::invalid_argument("make_cluster_backend: num_shards must be at least 1");
  }
  if (S > 1 && kind == BackendKind::kCpu) {
    throw std::invalid_argument(
        "make_cluster_backend: the cpu baseline cannot restrict its probe set "
        "to a shard's clusters; --shards > 1 requires --backend drim");
  }
  if (S > 1 && engine_options.cl_on_pim) {
    throw std::invalid_argument(
        "make_cluster_backend: cl_on_pim locates clusters on each shard's "
        "DPUs, but routing needs the probe list at the front-end; use host CL "
        "with --shards > 1");
  }

  ShardPlanParams pp;
  pp.num_shards = S;
  pp.replication_fraction = cluster_options.replication_fraction;
  pp.replica_copies = cluster_options.replica_copies;
  pp.lut_cost_points = engine_options.layout.lut_cost_points;
  ShardPlan plan(index.list_sizes(),
                 estimate_heat(index, sample_queries, engine_options.heat_nprobe), pp);

  std::vector<std::unique_ptr<AnnBackend>> shards;
  shards.reserve(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    if (kind == BackendKind::kCpu) {
      shards.push_back(std::make_unique<CpuBackend>(index, cpu_options));
    } else {
      DrimEngineOptions per_shard = engine_options;
      // Each shard is a full PIM node with its own num_dpus-DPU array; its
      // intra-array layout only places the clusters the plan assigned it.
      if (S > 1) per_shard.layout.owned_clusters = plan.owned_mask(s);
      shards.push_back(
          std::make_unique<DrimBackend>(index, sample_queries, per_shard));
    }
  }
  auto backend = std::make_unique<ClusterBackend>(index, std::move(plan),
                                                  std::move(shards), cluster_options);
  if (S > 1 && kind == BackendKind::kDrim) {
    // Recovery rebuilds survivors through this factory. Captures own copies:
    // the factory can outlive the caller's sample_queries.
    const FloatMatrix samples = sample_queries;
    backend->set_shard_factory(
        [samples, engine_options](std::uint32_t, const IndexSnapshot& snap,
                                  const std::vector<std::uint8_t>& mask) {
          DrimEngineOptions per_shard = engine_options;
          per_shard.layout.owned_clusters = mask;
          return std::make_unique<DrimBackend>(snap, samples, per_shard);
        });
  }
  return backend;
}

}  // namespace drim::cluster

#include "drim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "common/parallel.hpp"
#include "drim/host_exact.hpp"

namespace drim {

namespace {
// Reusable query-id-stamped flat maps for the per-DPU staging dedup: an
// array indexed by global query id whose entry is valid only when its stamp
// matches the current (step, dpu) epoch, so threads never clear it between
// steps and never hash. Epochs are drawn from one global counter, making
// every (step, dpu) pair's stamp unique across all engines and streams.
std::atomic<std::uint64_t> g_dedup_epoch{1};
thread_local std::vector<std::uint64_t> tl_dedup_stamp;
thread_local std::vector<std::uint32_t> tl_dedup_slot;

// Size the stamped maps for this step's id space. Under the persistent
// executor these thread_locals outlive any one engine, so grossly oversized
// maps from a past engine's larger batches are shrunk instead of pinned for
// the rest of the process. Dropping old entries is safe: validity is carried
// by the global epoch stamp, never by leftover buffer contents.
void dedup_reserve(std::size_t id_space) {
  if (tl_dedup_stamp.size() > std::max<std::size_t>(4096, id_space * 4)) {
    tl_dedup_stamp.assign(id_space, 0);
    tl_dedup_slot.assign(id_space, 0);
    tl_dedup_stamp.shrink_to_fit();
    tl_dedup_slot.shrink_to_fit();
  }
  if (tl_dedup_stamp.size() < id_space) {
    tl_dedup_stamp.resize(id_space, 0);
    tl_dedup_slot.resize(id_space, 0);
  }
}

/// One (shard, rung) group of a DPU's task list, replayed by the analytic
/// platform's coalesced host-exact scan.
struct ReplayGroup {
  std::uint32_t shard_slot = 0;
  bool q4 = false;
  std::vector<std::uint32_t> tasks;  ///< indices into the task list, ascending
};

/// Group a task list by (shard_slot, rung). Groups open in first-task order
/// and members keep list order, so the grouping never depends on hash order
/// or host thread count.
std::vector<ReplayGroup> group_by_shard_and_rung(std::span<const KernelTask> tasks) {
  std::vector<ReplayGroup> groups;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const bool q4 = task_is_q4(tasks[t]);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(tasks[t].shard_slot) << 1) | (q4 ? 1u : 0u);
    const auto [it, fresh] = index.try_emplace(key, groups.size());
    if (fresh) groups.push_back({tasks[t].shard_slot, q4, {}});
    groups[it->second].tasks.push_back(static_cast<std::uint32_t>(t));
  }
  return groups;
}
}  // namespace

SchedulerParams derive_scheduler_params(const PimConfig& cfg, std::size_t dim,
                                        std::size_t m, std::size_t cb, std::size_t k,
                                        bool use_square_lut, std::size_t cb4) {
  const std::size_t dsub = dim / m;
  const DpuInstructionCosts& c = cfg.costs;
  SchedulerParams p;
  // LC dominates the per-task fixed cost: per LUT entry, dsub squares (LUT or
  // mul) + 2*dsub adds + WRAM traffic; plus RC and the codebook DMA.
  const double square_cost = use_square_lut ? c.sq_lut_lookup : c.mul32;
  const double per_entry = static_cast<double>(dsub) * square_cost +
                           2.0 * static_cast<double>(dsub) * c.add + c.wram_access;
  const double rc = static_cast<double>(dim) * (c.add + 3.0 * c.wram_access);
  const double lc_dma = static_cast<double>(m * cb * dsub * 2) * cfg.dma_cycles_per_byte;
  p.l_lut = static_cast<double>(m * cb) * per_entry + rc + lc_dma;
  // DC per point: m LUT loads + (m-1) adds + streamed code bytes.
  p.l_calu = static_cast<double>(m) * c.lut_lookup +
             static_cast<double>(m - 1) * c.add +
             static_cast<double>(m) * cfg.dma_cycles_per_byte;
  // TS per point: threshold compare plus amortized heap maintenance.
  double log2k = 1.0;
  for (std::size_t v = k; v > 1; v >>= 1) log2k += 1.0;
  p.l_sortu = c.cmp + 0.25 * log2k * (c.cmp + 2.0 * c.wram_access);

  // 4-bit rung coefficients, matching the q4 kernel's charges: cb4-entry
  // coarse LUTs with per-component shifts, a 256-entry pair fold per LUT
  // pair, and a packed (m+1)/2-byte code stream.
  if (cb4 > 0) {
    const std::size_t pairs = (m + 1) / 2;
    const double per_entry_q4 = per_entry + static_cast<double>(dsub);  // + shift
    const double lc_dma_q4 =
        static_cast<double>(m * cb4 * dsub * 2) * cfg.dma_cycles_per_byte;
    const double pair_fold =
        static_cast<double>(pairs) * 256.0 * (c.add + c.wram_access);
    p.l_lut_q4 = static_cast<double>(m * cb4) * per_entry_q4 + rc +
                 static_cast<double>(dim) + lc_dma_q4 + pair_fold;
    p.l_calu_q4 = static_cast<double>(pairs) * c.lut_lookup +
                  static_cast<double>(pairs - 1) * c.add +
                  static_cast<double>(pairs) * cfg.dma_cycles_per_byte;
  } else {
    p.l_lut_q4 = p.l_lut;
    p.l_calu_q4 = p.l_calu;
  }
  return p;
}

DrimAnnEngine::DrimAnnEngine(const IvfPqIndex& index, const FloatMatrix& sample_queries,
                             const DrimEngineOptions& options)
    : DrimAnnEngine(make_root_snapshot(index), sample_queries, options) {}

DrimAnnEngine::DrimAnnEngine(IndexSnapshot snapshot, const FloatMatrix& sample_queries,
                             const DrimEngineOptions& options)
    : snapshot_(std::move(snapshot)),
      opts_(options),
      data_(*snapshot_.index),
      // Cover |residual| + |codeword|; OPQ rotations can widen residual
      // components, so leave generous headroom (misses fall back to the
      // multiply path, results stay exact either way).
      sq_lut_(std::min<std::int32_t>(8192, 2 * (255 + data_.max_operand_abs()))) {
  // Heat estimation from the sample query set (Section IV-A). Kept as a
  // member so apply_snapshot() can extend it over split children.
  heat_ = estimate_heat(index(), sample_queries, opts_.heat_nprobe);
  probe_counts_.assign(index().nlist(), 0);
  layout_ = std::make_unique<DataLayout>(data_, opts_.pim.num_dpus, heat_, opts_.layout);

  // Exact Eq. 15 coefficients for this index geometry at a placeholder depth;
  // search() re-derives them for its actual k before scheduling.
  ensure_scheduler_params(10);
  scheduler_ = std::make_unique<RuntimeScheduler>(*layout_, opts_.scheduler);

  pim_ = make_pim_platform(opts_.platform, opts_.pim);
  load_static_data();
  // Bill the static upload once, here, so the first search batch's
  // transfer_in reflects only that batch's staged queries.
  index_load_seconds_ = pim_->drain_pending_transfer();

  // Up-front batch_size feasibility: the staged query payloads alone must fit
  // the per-DPU staging region even in the worst case where every query of a
  // batch lands on one DPU. The k-dependent output footprint is re-validated
  // exactly per step by search_batch().
  if (opts_.batch_size > 0) {
    const std::size_t cap = max_staged_queries(1);
    if (opts_.batch_size > cap) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "batch_size %zu cannot be staged in MRAM; maximum feasible "
                    "batch_size is %zu",
                    opts_.batch_size, cap);
      throw std::invalid_argument(msg);
    }
  }

  // Up-front WRAM feasibility of the search kernel at a minimal depth
  // (k = 1); search entry re-validates with the caller's actual k, whose
  // heap only grows the working set.
  validate_wram(1);
}

std::size_t DrimAnnEngine::max_staged_queries(std::size_t k) const {
  if (staging_base_ >= opts_.pim.mram_bytes) return 0;
  // One batch must fit a single staging slot (at depth >= 2 the region is
  // split into pipeline_depth ping/pong slots so in-flight batches coexist).
  const std::size_t capacity = staging_stride_;
  // Per staged query: its int16 payload plus at least one task's k-hit
  // output block (alignment padding ignored — this is an upper bound).
  const std::size_t per_query = data_.dim() * 2 + k * sizeof(KernelHit);
  return capacity / per_query;
}

void DrimAnnEngine::validate_wram(std::size_t k) const {
  SearchKernelArgs args;
  args.dim = static_cast<std::uint32_t>(data_.dim());
  args.m = static_cast<std::uint32_t>(data_.m());
  args.cb = static_cast<std::uint32_t>(data_.cb_entries());
  args.k = static_cast<std::uint32_t>(std::max<std::size_t>(k, 1));
  args.use_square_lut = opts_.use_square_lut;
  args.sq_lut_max_abs = static_cast<std::uint32_t>(sq_lut_.max_abs());
  args.cb4 = static_cast<std::uint32_t>(data_.cb4());
  const std::size_t budget = opts_.pim.wram_bytes;
  char msg[256];
  if (search_wram_bytes(args, false) > budget) {
    std::snprintf(msg, sizeof(msg),
                  "search kernel WRAM working set does not fit: m %zu, cb %zu, "
                  "k %zu exceed pim.wram_bytes %zu (one LUT + one code block + "
                  "one top-k heap); reduce m, cb or k, or raise pim.wram_bytes",
                  data_.m(), data_.cb_entries(), k, budget);
    throw std::invalid_argument(msg);
  }
  // With the ladder on, one launch can carry both rungs, so the q4 rung's
  // coarse sub-LUT and pair-LUT buffers must fit beside the full-rung set.
  if (q4_ready() && search_wram_bytes(args, true) > budget) {
    std::snprintf(msg, sizeof(msg),
                  "search kernel WRAM working set does not fit with enable_q4: "
                  "m %zu, cb %zu, k %zu plus the 4-bit rung's buffers exceed "
                  "pim.wram_bytes %zu; turn off enable_q4, reduce m, cb or k, "
                  "or raise pim.wram_bytes",
                  data_.m(), data_.cb_entries(), k, budget);
    throw std::invalid_argument(msg);
  }
}

void DrimAnnEngine::validate_staging(std::size_t k) const {
  const std::size_t need = ((data_.dim() * 2 + 7) & ~std::size_t{7}) + k * sizeof(KernelHit);
  if (need > staging_stride_) {
    throw std::invalid_argument(
        "MRAM staging region cannot hold even one query at this k; reduce "
        "dataset, k, pipeline_depth, or add DPUs");
  }
}

void DrimAnnEngine::ensure_scheduler_params(std::size_t k) {
  if (k == sched_params_k_) return;
  // Preserve any filter and policy choices the caller configured.
  const bool filter = opts_.scheduler.enable_filter;
  const double slack = opts_.scheduler.filter_slack;
  const SchedulePolicy policy = opts_.scheduler.policy;
  opts_.scheduler = derive_scheduler_params(opts_.pim, data_.dim(), data_.m(),
                                            data_.cb_entries(), k, opts_.use_square_lut,
                                            q4_ready() ? data_.cb4() : 0);
  opts_.scheduler.enable_filter = filter;
  opts_.scheduler.filter_slack = slack;
  opts_.scheduler.policy = policy;
  sched_params_k_ = k;
  if (scheduler_) scheduler_->params() = opts_.scheduler;
}

void DrimAnnEngine::load_static_data() {
  // ---- broadcast regions (same offset on every DPU) ----
  sq_lut_off_ = pim_->alloc_symmetric(sq_lut_.size_bytes());
  pim_->broadcast(sq_lut_off_,
                  {reinterpret_cast<const std::uint8_t*>(sq_lut_.raw().data()),
                   sq_lut_.size_bytes()});

  const auto books = data_.codebooks();
  codebooks_off_ = pim_->alloc_symmetric(books.size() * 2);
  pim_->broadcast(codebooks_off_,
                  {reinterpret_cast<const std::uint8_t*>(books.data()), books.size() * 2});

  const auto cents = data_.centroids();
  centroids_off_ = pim_->alloc_symmetric(cents.size() * 2);
  pim_->broadcast(centroids_off_,
                  {reinterpret_cast<const std::uint8_t*>(cents.data()), cents.size() * 2});

  // Quantization-ladder statics (DESIGN.md §15), only when the ladder is on:
  // with enable_q4 off the MRAM image stays byte-identical to the pre-ladder
  // engine, so staging geometry and modeled times are unchanged.
  const bool ladder = opts_.enable_q4 && data_.has_q4();
  if (ladder) {
    const auto books_q4 = data_.codebooks_q4();
    codebooks_q4_off_ = pim_->alloc_symmetric(books_q4.size() * 2);
    pim_->broadcast(codebooks_q4_off_,
                    {reinterpret_cast<const std::uint8_t*>(books_q4.data()),
                     books_q4.size() * 2});
  }

  // ---- per-DPU shard data ----
  const std::size_t num_dpus = pim_->num_dpus();
  dpu_shard_regions_.resize(num_dpus);
  dpu_shard_ids_.resize(num_dpus);
  shard_slot_.assign(layout_->shards().size(), 0);

  // Per-DPU uploads are independent (private MRAM allocators, disjoint
  // shard_slot_ entries — every shard lives on exactly one DPU), so the
  // whole index load fans out across host threads.
  parallel_for(0, num_dpus, [&](std::size_t d) {
    for (std::uint32_t shard_id : layout_->dpu_shards(d)) {
      const Shard& sh = layout_->shard(shard_id);
      const auto codes = data_.cluster_codes(sh.cluster);
      const auto ids = data_.cluster_ids(sh.cluster);
      const std::size_t cs = data_.code_size();

      ShardRegion region;
      region.size = sh.size();
      region.cluster = sh.cluster;
      region.begin = sh.begin;
      region.dead = snapshot_.dead_flags(sh.cluster);
      region.live = region.size;
      if (region.dead != nullptr) {
        std::uint32_t live = 0;
        for (std::uint32_t i = 0; i < region.size; ++i) {
          if (region.dead[region.begin + i] == 0) ++live;
        }
        region.live = live;
      }
      region.codes_offset = pim_->alloc_on(d, region.size * cs);
      region.ids_offset = pim_->alloc_on(d, region.size * sizeof(std::uint32_t));
      pim_->push(d, region.codes_offset,
                 codes.subspan(sh.begin * cs, static_cast<std::size_t>(region.size) * cs));
      pim_->push(d, region.ids_offset,
                 {reinterpret_cast<const std::uint8_t*>(ids.data() + sh.begin),
                  static_cast<std::size_t>(region.size) * sizeof(std::uint32_t)});
      if (ladder) {
        const auto codes_q4 = data_.cluster_codes_q4(sh.cluster);
        const std::size_t cs4 = data_.code_size_q4();
        region.q4_codes_offset = pim_->alloc_on(d, region.size * cs4);
        region.q4_shift = data_.cluster_shift(sh.cluster);
        pim_->push(d, region.q4_codes_offset,
                   codes_q4.subspan(sh.begin * cs4,
                                    static_cast<std::size_t>(region.size) * cs4));
      }

      shard_slot_[shard_id] = static_cast<std::uint32_t>(dpu_shard_regions_[d].size());
      dpu_shard_regions_[d].push_back(region);
      dpu_shard_ids_[d].push_back(shard_id);
    }
  });
  std::size_t max_used = 0;
  for (std::size_t d = 0; d < num_dpus; ++d) {
    max_used = std::max(max_used, pim_->mram_used(d));
  }
  // Staging region starts above the highest static allocation on any DPU so
  // kernel args can use one offset for all DPUs.
  staging_base_ = (max_used + 7) & ~std::size_t{7};

  // One warm-up style sanity check: staging must have room for something.
  if (staging_base_ >= opts_.pim.mram_bytes) {
    throw std::runtime_error("MRAM exhausted by static data; reduce dataset or add DPUs");
  }

  // Slot geometry of the pipelined executor. Depth 1 keeps the serial
  // path's exact capacity arithmetic (one unaligned full-region slot);
  // deeper pipelines split the region into equal 8-byte-aligned slots.
  const std::size_t staging_total = opts_.pim.mram_bytes - staging_base_;
  const std::size_t depth = pipeline_depth();
  staging_stride_ =
      depth <= 1 ? staging_total : (staging_total / depth) & ~std::size_t{7};
  if (staging_stride_ == 0) {
    throw std::runtime_error(
        "MRAM staging region too small for pipeline_depth slots; reduce "
        "pipeline_depth, dataset, or add DPUs");
  }
}

void DrimAnnEngine::rebuild_from_snapshot() {
  data_ = PimIndexData(index());
  sq_lut_ = SquareLut(std::min<std::int32_t>(8192, 2 * (255 + data_.max_operand_abs())));
  layout_ = std::make_unique<DataLayout>(data_, opts_.pim.num_dpus, heat_, opts_.layout);
  scheduler_ = std::make_unique<RuntimeScheduler>(*layout_, opts_.scheduler);
  pim_->reset_memory();
  // resize() would keep stale entries from the previous layout; start clean.
  dpu_shard_regions_.assign(pim_->num_dpus(), {});
  dpu_shard_ids_.assign(pim_->num_dpus(), {});
  shard_slot_.clear();
  load_static_data();
  // The physical reload exists only for functional bit-exactness; its
  // host-link tally must not leak into the next batch's transfer_in (callers
  // bill the modeled delta instead).
  pim_->drain_pending_transfer();
}

double DrimAnnEngine::apply_snapshot(const IndexSnapshot& snapshot,
                                     const PublishDelta& delta) {
  // Deterministic heat extension over split children: the child takes its
  // observed fraction of the parent's heat, the parent keeps the rest. Split
  // records are replayed in order, so chained splits (a child splitting
  // again) resolve correctly.
  for (const SplitRecord& s : delta.splits) {
    if (s.child >= heat_.size()) heat_.resize(s.child + 1, 0.0);
    const double parent_heat = s.parent < heat_.size() ? heat_[s.parent] : 0.0;
    const double child_heat = parent_heat * s.child_fraction;
    heat_[s.parent] = parent_heat - child_heat;
    heat_[s.child] = child_heat;
    // Cluster-tier ownership: a split child stays on the shard that owned
    // (and physically holds) its parent's points.
    if (!opts_.layout.owned_clusters.empty()) {
      if (s.child >= opts_.layout.owned_clusters.size()) {
        opts_.layout.owned_clusters.resize(s.child + 1, 0);
      }
      opts_.layout.owned_clusters[s.child] =
          s.parent < opts_.layout.owned_clusters.size()
              ? opts_.layout.owned_clusters[s.parent]
              : std::uint8_t{0};
    }
  }
  snapshot_ = snapshot;
  const std::size_t nlist = index().nlist();
  if (heat_.size() < nlist) heat_.resize(nlist, 0.5);  // smoothing floor
  if (!opts_.layout.owned_clusters.empty() &&
      opts_.layout.owned_clusters.size() < nlist) {
    opts_.layout.owned_clusters.resize(nlist, 0);
  }
  probe_counts_.assign(nlist, 0);
  rebuild_from_snapshot();
  return static_cast<double>(delta.total_bytes()) /
         opts_.pim.host_link_bytes_per_sec;
}

double DrimAnnEngine::replan_layout() {
  std::uint64_t total = 0;
  for (const std::uint64_t c : probe_counts_) total += c;
  if (total == 0) return 0.0;

  // Same Laplace smoothing as the construction-time estimate: unseen
  // clusters still carry their size-proportional base cost.
  heat_.assign(probe_counts_.size(), 0.0);
  for (std::size_t c = 0; c < probe_counts_.size(); ++c) {
    heat_[c] = static_cast<double>(probe_counts_[c]) + 0.5;
  }

  // Remember where every (cluster, slice, replica) lived so only shards
  // whose DPU placement actually changed are billed.
  struct SliceKey {
    std::uint64_t hi, lo;
    bool operator<(const SliceKey& o) const {
      return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
  };
  std::map<SliceKey, std::uint32_t> old_home;
  for (const Shard& sh : layout_->shards()) {
    old_home[{(static_cast<std::uint64_t>(sh.cluster) << 32) | sh.begin,
              (static_cast<std::uint64_t>(sh.end) << 32) | sh.replica}] = sh.dpu;
  }

  probe_counts_.assign(probe_counts_.size(), 0);
  rebuild_from_snapshot();

  const std::size_t cs = data_.code_size();
  std::uint64_t moved_bytes = 0;
  for (const Shard& sh : layout_->shards()) {
    const auto it = old_home.find(
        {(static_cast<std::uint64_t>(sh.cluster) << 32) | sh.begin,
         (static_cast<std::uint64_t>(sh.end) << 32) | sh.replica});
    if (it != old_home.end() && it->second == sh.dpu) continue;  // stayed put
    moved_bytes += static_cast<std::uint64_t>(sh.size()) *
                   (cs + sizeof(std::uint32_t));
  }
  return static_cast<double>(moved_bytes) / opts_.pim.host_link_bytes_per_sec;
}

double DrimAnnEngine::model_host_cl_seconds(std::size_t num_queries) const {
  // CL = exhaustive centroid scan + partial selection on the host.
  const double flops = static_cast<double>(num_queries) *
                       static_cast<double>(index().nlist()) *
                       (3.0 * static_cast<double>(data_.dim()));
  const double bytes = static_cast<double>(num_queries) *
                       static_cast<double>(index().nlist()) *
                       (static_cast<double>(data_.dim()) * 4.0);
  return std::max(flops / opts_.host.flops_per_sec, bytes / opts_.host.bytes_per_sec);
}

DrimAnnEngine::LaunchLayout DrimAnnEngine::serial_launch_layout(
    double start_s, const BatchResult& batch) {
  LaunchLayout layout;
  layout.in_start = start_s;
  layout.launch_start = start_s + batch.transfer_in_seconds;
  layout.launch_seconds = batch.total_seconds() - batch.transfer_in_seconds -
                          batch.transfer_out_seconds - batch.dpu_seconds;
  layout.kern_start = layout.launch_start + std::max(layout.launch_seconds, 0.0);
  layout.out_start = layout.kern_start + batch.dpu_seconds;
  return layout;
}

void DrimAnnEngine::trace_launch(double start_s, const BatchResult& batch,
                                 const char* kind,
                                 const std::vector<std::size_t>& tasks_per_dpu) {
  trace_launch_spans(serial_launch_layout(start_s, batch), batch, kind, tasks_per_dpu);
}

void DrimAnnEngine::trace_launch_spans(const LaunchLayout& layout,
                                       const BatchResult& batch, const char* kind,
                                       const std::vector<std::size_t>& tasks_per_dpu) {
  if (trace_ == nullptr) return;
  obs::TraceRecorder& tr = *trace_;
  const std::uint32_t xfer_lane = tr.lane("host/transfer");
  const std::uint32_t launch_lane = tr.lane("host/launch");

  if (batch.transfer_in_seconds > 0.0) {
    tr.span(xfer_lane, "transfer-in", kind, layout.in_start, batch.transfer_in_seconds);
  }
  if (layout.launch_seconds > 0.0) {
    tr.span(launch_lane, "launch", kind, layout.launch_start, layout.launch_seconds);
  }
  const double kern0 = layout.kern_start;

  char lane_name[32];
  for (std::size_t d = 0; d < batch.per_dpu_seconds.size(); ++d) {
    const double busy = batch.per_dpu_seconds[d];
    if (busy <= 0.0) continue;
    std::snprintf(lane_name, sizeof(lane_name), "dpu %zu", d);
    const std::uint32_t lane = tr.lane(lane_name);
    const double tasks =
        d < tasks_per_dpu.size() ? static_cast<double>(tasks_per_dpu[d]) : 0.0;
    tr.span(lane, kind, kind, kern0, busy, {{"tasks", tasks}});
    // Phase sub-spans, laid sequentially and scaled so they tile the DPU's
    // busy window exactly (each phase's max(compute, dma) overlaps the
    // others', so raw per-phase times over-cover the window; the raw value
    // rides along in the args).
    double phase_sum = 0.0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      phase_sum += pim_->dpu_phase_seconds(d, static_cast<Phase>(p));
    }
    if (phase_sum <= 0.0) continue;
    const double scale = busy / phase_sum;
    double pt = kern0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const double raw = pim_->dpu_phase_seconds(d, static_cast<Phase>(p));
      if (raw <= 0.0) continue;
      tr.span(lane, std::string(phase_name(static_cast<Phase>(p))), "phase", pt,
              raw * scale, {{"dpu_seconds", raw}});
      pt += raw * scale;
    }
  }

  if (batch.transfer_out_seconds > 0.0) {
    tr.span(xfer_lane, "transfer-out", kind, layout.out_start,
            batch.transfer_out_seconds);
  }
}

double DrimAnnEngine::locate_on_pim(
    const std::vector<std::vector<std::int16_t>>& quantized, std::size_t begin,
    std::size_t end, std::size_t nprobe,
    std::vector<std::vector<std::uint32_t>>& probes, DrimSearchStats& stats,
    std::size_t slot_base, ClLaunchTrace* deferred_trace) {
  const std::size_t dim = data_.dim();
  const std::size_t num_dpus = pim_->num_dpus();
  const std::size_t nq = end - begin;
  const std::size_t nlist = data_.nlist();
  const std::size_t per_dpu = (nlist + num_dpus - 1) / num_dpus;
  const std::size_t keep = std::min(nprobe, nlist);

  // Stage the chunk's queries on every DPU (broadcast region of this step's
  // staging slot), outputs right after.
  const std::size_t queries_bytes = nq * dim * 2;
  const std::size_t output_off = slot_base + ((queries_bytes + 7) & ~std::size_t{7});
  const std::size_t output_bytes = nq * keep * sizeof(KernelHit);
  if (output_off + output_bytes > slot_base + staging_stride_) {
    throw std::runtime_error("CL staging exceeds MRAM; lower batch_size");
  }
  // Assemble the chunk's queries into one contiguous block and broadcast it
  // in a single transfer (transmitted once, resident on every DPU; the
  // per-DPU copies fan out across threads inside broadcast()).
  std::vector<std::int16_t> staged(nq * dim);
  parallel_for(0, nq, [&](std::size_t q) {
    std::copy(quantized[begin + q].begin(), quantized[begin + q].end(),
              staged.begin() + q * dim);
  });
  pim_->broadcast(slot_base, {reinterpret_cast<const std::uint8_t*>(staged.data()),
                              staged.size() * 2});

  const std::size_t active_dpus =
      std::min(num_dpus, (nlist + per_dpu - 1) / per_dpu);
  const bool functional = pim_->functional();
  std::vector<std::vector<KernelHit>> dpu_hits(active_dpus);
  std::vector<TopK> merged(nq, TopK(keep));
  const BatchResult batch = pim_->run_batch(
      [&](std::size_t d, DpuContext& ctx) {
        ClKernelArgs args;
        args.dim = static_cast<std::uint32_t>(dim);
        args.nprobe = static_cast<std::uint32_t>(keep);
        args.centroid_begin = static_cast<std::uint32_t>(std::min(d * per_dpu, nlist));
        args.centroid_count = static_cast<std::uint32_t>(
            std::min(per_dpu, nlist - args.centroid_begin));
        args.centroids_offset = centroids_off_;
        args.queries_offset = slot_base;
        args.num_queries = static_cast<std::uint32_t>(nq);
        args.output_offset = output_off;
        args.sq_lut_offset = sq_lut_off_;
        args.sq_lut_max_abs = static_cast<std::uint32_t>(sq_lut_.max_abs());
        args.use_square_lut = opts_.use_square_lut;
        if (functional) {
          run_cl_kernel(ctx, args);
        } else {
          charge_cl_kernel(ctx, args);
        }
      },
      [&]() {
        // Pull each active DPU's whole candidate block concurrently (same
        // bytes billed as per-query pulls), then merge serially in fixed
        // (dpu, query) order so heap contents match the serial path exactly.
        // On a non-functional platform the candidate rows are computed with
        // the host-side exact scan first; pull() then only bills the bytes.
        parallel_for(0, active_dpus, [&](std::size_t d) {
          dpu_hits[d].resize(nq * keep);
          if (!functional) {
            const std::uint32_t cbegin =
                static_cast<std::uint32_t>(std::min(d * per_dpu, nlist));
            const std::uint32_t ccount =
                static_cast<std::uint32_t>(std::min(per_dpu, nlist - cbegin));
            for (std::size_t q = 0; q < nq; ++q) {
              host_cl_candidates_into(
                  data_, quantized[begin + q], cbegin, ccount,
                  static_cast<std::uint32_t>(keep),
                  std::span<KernelHit>(dpu_hits[d].data() + q * keep, keep));
            }
          }
          pim_->pull(d, output_off,
                     {reinterpret_cast<std::uint8_t*>(dpu_hits[d].data()),
                      nq * keep * sizeof(KernelHit)});
        });
        // Merge in parallel across queries; each query replays its fixed
        // d-then-i visit order, so heap contents (and tie-breaking) match
        // the serial path exactly.
        parallel_for(0, nq, [&](std::size_t q) {
          for (std::size_t d = 0; d < active_dpus; ++d) {
            for (std::size_t i = 0; i < keep; ++i) {
              const KernelHit& h = dpu_hits[d][q * keep + i];
              if (h.id == 0xFFFFFFFFu && h.dist == 0xFFFFFFFFu) break;
              merged[q].push(static_cast<float>(h.dist), h.id);
            }
          }
        });
      });

  for (std::size_t q = 0; q < nq; ++q) {
    probes[begin + q].clear();
    for (const Neighbor& n : merged[q].take_sorted()) {
      probes[begin + q].push_back(n.id);
    }
  }

  stats.transfer_in_seconds += batch.transfer_in_seconds;
  stats.transfer_out_seconds += batch.transfer_out_seconds;
  stats.dpu_busy_seconds += batch.dpu_seconds;
  for (std::size_t d = 0; d < num_dpus; ++d) {
    stats.per_dpu_seconds[d] += batch.per_dpu_seconds[d];
    stats.phase_dpu_seconds[static_cast<std::size_t>(Phase::CL)] +=
        pim_->dpu_phase_seconds(d, Phase::CL);
  }
  stats.counters.add(pim_->aggregate_counters());
  if (deferred_trace != nullptr) {
    // The pipelined caller places this launch on the timeline itself, once
    // begin_batch() has computed where the pre-launch lands.
    deferred_trace->batch = batch;
    deferred_trace->active_dpus = active_dpus;
    deferred_trace->num_queries = nq;
    deferred_trace->valid = true;
  } else if (trace_ != nullptr) {
    trace_launch(trace_->now(), batch, "cl-pim",
                 std::vector<std::size_t>(active_dpus, nq));
    trace_->advance(batch.total_seconds());
  }
  return batch.total_seconds();
}

std::uint32_t DrimAnnEngine::enqueue_query(SearchBatchState& state,
                                           std::span<const float> query, std::size_t k,
                                           std::size_t nprobe, Precision precision) {
  const std::uint32_t handle = static_cast<std::uint32_t>(state.quantized.size());
  state.quantized.push_back(PimIndexData::quantize_query(query));
  state.probes.emplace_back();
  if (!opts_.cl_on_pim) state.probes.back() = index().locate_clusters(query, nprobe);
  state.query_k.push_back(static_cast<std::uint32_t>(k));
  state.query_nprobe.push_back(static_cast<std::uint32_t>(nprobe));
  state.cl_external.push_back(0);
  state.query_precision.push_back(
      precision == Precision::kQ4 && q4_ready() ? 1 : 0);
  state.accum.emplace_back(k);
  state.deferred_per_query.push_back(0);
  return handle;
}

std::uint32_t DrimAnnEngine::enqueue_query_routed(SearchBatchState& state,
                                                  std::span<const float> query,
                                                  std::size_t k,
                                                  std::span<const std::uint32_t> probes,
                                                  Precision precision) {
  if (opts_.cl_on_pim) {
    throw std::invalid_argument(
        "enqueue_query_routed: caller-supplied probe lists are incompatible "
        "with cl_on_pim (the PIM CL launch would recompute them)");
  }
  const std::uint32_t handle = static_cast<std::uint32_t>(state.quantized.size());
  state.quantized.push_back(PimIndexData::quantize_query(query));
  state.probes.emplace_back(probes.begin(), probes.end());
  state.query_k.push_back(static_cast<std::uint32_t>(k));
  state.query_nprobe.push_back(
      static_cast<std::uint32_t>(std::max<std::size_t>(probes.size(), 1)));
  state.cl_external.push_back(1);
  state.query_precision.push_back(
      precision == Precision::kQ4 && q4_ready() ? 1 : 0);
  state.accum.emplace_back(k);
  state.deferred_per_query.push_back(0);
  return handle;
}

void DrimAnnEngine::enqueue_queries(SearchBatchState& state, const FloatMatrix& queries,
                                    std::size_t k, std::size_t nprobe,
                                    Precision precision) {
  const std::size_t base = state.quantized.size();
  const std::size_t nq = queries.count();
  const std::uint8_t rung = precision == Precision::kQ4 && q4_ready() ? 1 : 0;
  state.quantized.resize(base + nq);
  state.probes.resize(base + nq);
  state.query_k.resize(base + nq, static_cast<std::uint32_t>(k));
  state.query_nprobe.resize(base + nq, static_cast<std::uint32_t>(nprobe));
  state.cl_external.resize(base + nq, 0);
  state.query_precision.resize(base + nq, rung);
  state.accum.reserve(base + nq);
  for (std::size_t q = 0; q < nq; ++q) state.accum.emplace_back(k);
  state.deferred_per_query.resize(base + nq, 0);

  // Quantized query payloads (independent per query).
  parallel_for(0, nq, [&](std::size_t q) {
    state.quantized[base + q] = PimIndexData::quantize_query(queries.row(q));
  });
  // CL: on the host by default (overlapped with PIM per batch); cl_on_pim
  // fills probes lazily inside each step instead.
  if (!opts_.cl_on_pim) {
    parallel_for(0, nq, [&](std::size_t q) {
      state.probes[base + q] = index().locate_clusters(queries.row(q), nprobe);
    });
  }
}

BatchStepStats DrimAnnEngine::search_batch(SearchBatchState& state,
                                           std::size_t max_queries, bool flush,
                                           DrimSearchStats* stats) {
  const std::size_t dim = data_.dim();
  const std::size_t num_dpus = pim_->num_dpus();

  DrimSearchStats local;
  DrimSearchStats& st = stats != nullptr ? *stats : local;
  if (st.per_dpu_seconds.size() != num_dpus) st.per_dpu_seconds.assign(num_dpus, 0.0);
  st.index_load_seconds = index_load_seconds_;

  const std::size_t begin = state.next_query;
  const std::size_t end = max_queries == 0
                              ? state.quantized.size()
                              : std::min(state.quantized.size(), begin + max_queries);
  state.next_query = end;

  BatchStepStats step;
  step.fresh_queries = end - begin;
  st.queries += end - begin;
  if (end == begin && state.carried.empty()) return step;  // nothing to run

  // Pipelined executor setup: each step stages into its round-robin MRAM
  // slot; at depth >= 2 the step's stages are placed on the state's virtual
  // timeline so they overlap neighboring in-flight steps.
  const std::size_t depth = pipeline_depth();
  const std::size_t slot_base = staging_slot_base(state.step_index);
  if (depth >= 2 && (!state.pipeline || state.pipeline->depth() != depth)) {
    state.pipeline = std::make_unique<PipelineTimeline>(depth);
  }

  // Kernel depth for this step: the widest k among the fresh queries and the
  // carried tasks' queries. Per-query heaps still truncate to their own k.
  std::size_t k = 0;
  for (std::size_t q = begin; q < end; ++q) {
    k = std::max<std::size_t>(k, state.query_k[q]);
  }
  for (const Task& t : state.carried) {
    k = std::max<std::size_t>(k, state.query_k[t.query]);
  }
  // Price the Eq. 15 TS term for this step's actual search depth, and check
  // the kernel's WRAM working set against it (the heap scales with k).
  ensure_scheduler_params(k);
  validate_wram(k);

  // CL-on-PIM: a dedicated barrier launch precedes the search launch (it
  // cannot overlap — the search needs its output). The launch keeps the
  // chunk's widest nprobe; narrower queries truncate their candidate list.
  ClLaunchTrace cl_trace;
  if (opts_.cl_on_pim && end > begin) {
    std::size_t pmax = 0;
    for (std::size_t q = begin; q < end; ++q) {
      pmax = std::max<std::size_t>(pmax, state.query_nprobe[q]);
    }
    step.cl_pim_seconds =
        locate_on_pim(state.quantized, begin, end, pmax, state.probes, st, slot_base,
                      depth >= 2 ? &cl_trace : nullptr);
    for (std::size_t q = begin; q < end; ++q) {
      if (state.probes[q].size() > state.query_nprobe[q]) {
        state.probes[q].resize(state.query_nprobe[q]);
      }
    }
  }

  // Open this step on the timeline (reserving the CL pre-launch on the link
  // and DPU array) and trace the CL launch at its scheduled start — the
  // phase counters it reads are reset by the search run_batch below.
  if (depth >= 2) {
    const double pre_start =
        state.pipeline->begin_batch(state.submit_hint_seconds, step.cl_pim_seconds);
    if (trace_ != nullptr && cl_trace.valid) {
      trace_launch(pre_start, cl_trace.batch, "cl-pim",
                   std::vector<std::size_t>(cl_trace.active_dpus, cl_trace.num_queries));
    }
  }

  // Observed cluster traffic feeds replan_layout()'s heat estimate.
  for (std::size_t q = begin; q < end; ++q) {
    for (const std::uint32_t c : state.probes[q]) {
      if (c < probe_counts_.size()) ++probe_counts_[c];
    }
  }

  // The scheduler walks only this chunk's range of the probe table
  // (Task.query indexes the whole state).
  const Assignment assignment = scheduler_->schedule(
      state.probes, begin, end, state.carried, flush, &state.query_precision);
  state.carried = assignment.deferred;
  std::fill(state.deferred_per_query.begin(), state.deferred_per_query.end(), 0u);
  for (const Task& t : state.carried) ++state.deferred_per_query[t.query];

  // ---- stage per-DPU inputs ----
  std::vector<std::vector<KernelTask>> dpu_tasks(num_dpus);
  std::vector<std::vector<std::uint32_t>> dpu_task_query(num_dpus);  // global q ids
  std::vector<std::vector<std::uint32_t>> dpu_slot_query(num_dpus);  // slot -> global q
  std::vector<std::size_t> dpu_output_off(num_dpus, 0);
  std::vector<std::size_t> dpu_need(num_dpus, 0);

  // Per-DPU dedup is independent (private task lists), so it fans out across
  // host threads; nothing is pushed yet so an oversized batch can still be
  // rejected cleanly below. Dedup uses the reusable stamped flat maps: a
  // fresh stamp per (step, dpu) makes stale entries invisible without
  // clearing, and first-occurrence slot order matches the old hashed path.
  const std::uint64_t epoch_base =
      g_dedup_epoch.fetch_add(num_dpus, std::memory_order_relaxed);
  const std::size_t id_space = state.quantized.size();
  const bool ladder = q4_ready();
  parallel_for(0, num_dpus, [&](std::size_t d) {
    const auto& tasks = assignment.per_dpu[d];
    if (tasks.empty()) return;
    dedup_reserve(id_space);
    const std::uint64_t stamp = epoch_base + d;
    auto& slot_query = dpu_slot_query[d];
    for (const Task& t : tasks) {
      if (tl_dedup_stamp[t.query] != stamp) {
        tl_dedup_stamp[t.query] = stamp;
        tl_dedup_slot[t.query] = static_cast<std::uint32_t>(slot_query.size());
        slot_query.push_back(t.query);
      }
      // The task's precision rung rides in the slot word's top bit; the
      // staged query payload is rung-independent, so dedup stays by query.
      const std::uint32_t rung_bit =
          ladder && t.query < state.query_precision.size() &&
                  state.query_precision[t.query] != 0
              ? kTaskQ4Bit
              : 0u;
      dpu_tasks[d].push_back({tl_dedup_slot[t.query] | rung_bit, shard_slot_[t.shard]});
      dpu_task_query[d].push_back(t.query);
    }
    // Staging layout: [queries][outputs], within this step's slot.
    const std::size_t queries_bytes = slot_query.size() * dim * 2;
    const std::size_t output_bytes = tasks.size() * k * sizeof(KernelHit);
    dpu_output_off[d] = slot_base + ((queries_bytes + 7) & ~std::size_t{7});
    dpu_need[d] = dpu_output_off[d] + output_bytes;
  });

  // Capacity check, serially and before any bytes move (throwing from inside
  // a worker lambda mid-staging left the byte tallies half-updated). The
  // error reports the batch size that would have fit this step's schedule.
  for (std::size_t d = 0; d < num_dpus; ++d) {
    if (dpu_need[d] <= slot_base + staging_stride_) continue;
    const std::size_t need = dpu_need[d] - slot_base;
    const std::size_t capacity = staging_stride_;
    const std::size_t fresh = end - begin;
    const std::size_t feasible =
        fresh > 0 ? std::max<std::size_t>(1, fresh * capacity / need) : 0;
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "per-batch staging exceeds MRAM on DPU %zu (%zu bytes needed, "
                  "%zu available); maximum feasible batch_size for this "
                  "workload is about %zu",
                  d, need, capacity, feasible);
    throw std::runtime_error(msg);
  }

  // Query pushes fan out per DPU (private MRAM; the byte tally is atomic).
  parallel_for(0, num_dpus, [&](std::size_t d) {
    const auto& slot_query = dpu_slot_query[d];
    for (std::size_t s = 0; s < slot_query.size(); ++s) {
      const auto& qv = state.quantized[slot_query[s]];
      pim_->push(d, slot_base + s * dim * 2,
                 {reinterpret_cast<const std::uint8_t*>(qv.data()), dim * 2});
    }
  });

  // ---- launch ----
  SearchKernelArgs args;
  args.dim = static_cast<std::uint32_t>(dim);
  args.m = static_cast<std::uint32_t>(data_.m());
  args.cb = static_cast<std::uint32_t>(data_.cb_entries());
  args.code_size = static_cast<std::uint32_t>(data_.code_size());
  args.wide_codes = data_.wide_codes();
  args.k = static_cast<std::uint32_t>(k);
  args.sq_lut_offset = sq_lut_off_;
  args.sq_lut_max_abs = static_cast<std::uint32_t>(sq_lut_.max_abs());
  args.codebooks_offset = codebooks_off_;
  args.centroids_offset = centroids_off_;
  args.queries_offset = slot_base;
  args.use_square_lut = opts_.use_square_lut;
  if (ladder) {
    args.has_q4 = true;
    args.cb4 = static_cast<std::uint32_t>(data_.cb4());
    args.code_size_q4 = static_cast<std::uint32_t>(data_.code_size_q4());
    args.codebooks_q4_offset = codebooks_q4_off_;
  }

  const bool functional = pim_->functional();
  BatchResult batch = pim_->run_batch(
      [&](std::size_t d, DpuContext& ctx) {
        if (dpu_tasks[d].empty()) return;
        SearchKernelArgs a = args;
        a.output_offset = dpu_output_off[d];
        if (functional) {
          run_search_kernel(ctx, a, dpu_shard_regions_[d], dpu_tasks[d]);
        } else {
          charge_search_kernel(ctx, a, dpu_shard_regions_[d], dpu_tasks[d]);
        }
      },
      [&]() {
        // Collect: pull each DPU's whole output block concurrently (same
        // bytes billed as per-task pulls), then merge into the per-query
        // heaps serially in fixed (dpu, task) order — accum[] heaps are
        // shared across DPUs, and a fixed merge order keeps tie-breaking
        // bit-identical to the serial path. On a non-functional platform the
        // output rows are computed by the host-side exact scan over the same
        // (query, shard) task list; pull() then only bills the bytes.
        std::vector<std::vector<KernelHit>> dpu_hits(num_dpus);
        parallel_for(0, num_dpus, [&](std::size_t d) {
          if (dpu_tasks[d].empty()) return;
          dpu_hits[d].resize(dpu_tasks[d].size() * k);
          if (!functional) {
            // Coalesced exact replay: group this DPU's tasks by (shard, rung)
            // and pull each shard's code block ONCE per batch, scoring it
            // against every member query before advancing. Per-task
            // arithmetic and push order are unchanged, so rows stay
            // byte-identical to the per-task replay (and to the functional
            // kernel); this is a host wall-clock fix, billed times are
            // untouched. Replays the rung the kernel would have run: q4 task
            // rows hold (coarse dist, LOCAL index) pairs, full rows global
            // ids.
            std::vector<HostFusedTask> members;
            for (const ReplayGroup& g : group_by_shard_and_rung(dpu_tasks[d])) {
              const Shard& sh = layout_->shard(dpu_shard_ids_[d][g.shard_slot]);
              members.clear();
              for (const std::uint32_t t : g.tasks) {
                members.push_back({state.quantized[dpu_task_query[d][t]].data(),
                                   dpu_hits[d].data() + t * k});
              }
              host_search_tasks_fused_into(data_, members, sh,
                                           static_cast<std::uint32_t>(k),
                                           ladder && g.q4,
                                           snapshot_.dead_flags(sh.cluster));
            }
          }
          pim_->pull(d, dpu_output_off[d],
                     {reinterpret_cast<std::uint8_t*>(dpu_hits[d].data()),
                      dpu_hits[d].size() * sizeof(KernelHit)});
          // Exact-rerank tail (both platforms): each q4 row's candidates are
          // re-scored with the full-precision ADC LUT on the host and their
          // global ids resolved, so what enters the merge heaps is exact.
          if (ladder) {
            // Rows sharing (query, cluster) — e.g. slices of one cluster —
            // rebuild the full-precision ADC table once. Rows are rescored
            // independently, so visiting them in (query, cluster) order
            // leaves every row byte-identical to the per-row path.
            std::vector<std::uint32_t> rows;
            for (std::size_t t = 0; t < dpu_tasks[d].size(); ++t) {
              if (task_is_q4(dpu_tasks[d][t])) {
                rows.push_back(static_cast<std::uint32_t>(t));
              }
            }
            const auto row_cluster = [&](std::uint32_t t) {
              return layout_->shard(dpu_shard_ids_[d][dpu_tasks[d][t].shard_slot])
                  .cluster;
            };
            std::stable_sort(rows.begin(), rows.end(),
                             [&](std::uint32_t a, std::uint32_t b) {
                               if (dpu_task_query[d][a] != dpu_task_query[d][b]) {
                                 return dpu_task_query[d][a] < dpu_task_query[d][b];
                               }
                               return row_cluster(a) < row_cluster(b);
                             });
            std::vector<std::uint32_t> lut(data_.m() * data_.cb_entries());
            bool lut_valid = false;
            std::uint64_t lut_key = 0;
            for (const std::uint32_t t : rows) {
              const Shard& sh =
                  layout_->shard(dpu_shard_ids_[d][dpu_tasks[d][t].shard_slot]);
              const std::uint64_t key =
                  (static_cast<std::uint64_t>(dpu_task_query[d][t]) << 32) |
                  sh.cluster;
              if (!lut_valid || key != lut_key) {
                host_build_adc_lut(data_, state.quantized[dpu_task_query[d][t]],
                                   sh.cluster, lut);
                lut_valid = true;
                lut_key = key;
              }
              host_rerank_q4_row_with_lut(
                  data_, lut, sh,
                  std::span<KernelHit>(dpu_hits[d].data() + t * k, k));
            }
          }
        });
        // Merge into the shared per-query heaps in parallel across queries:
        // first index every (dpu, task) visit per query in the fixed global
        // (dpu, task) order, then each host thread replays only its own
        // queries' visits in that order — the same heap pushes in the same
        // sequence as the serial merge, so tie-breaking is bit-identical,
        // and no heap is touched by two threads.
        const std::size_t id_space = state.accum.size();
        std::vector<std::uint32_t> visit_off(id_space + 1, 0);
        for (std::size_t d = 0; d < num_dpus; ++d) {
          for (const std::uint32_t q : dpu_task_query[d]) ++visit_off[q + 1];
        }
        for (std::size_t q = 0; q < id_space; ++q) visit_off[q + 1] += visit_off[q];
        struct Visit {
          std::uint32_t dpu;
          std::uint32_t task;
        };
        std::vector<Visit> visits(visit_off[id_space]);
        std::vector<std::uint32_t> cursor(visit_off.begin(), visit_off.end() - 1);
        for (std::size_t d = 0; d < num_dpus; ++d) {
          for (std::size_t t = 0; t < dpu_task_query[d].size(); ++t) {
            visits[cursor[dpu_task_query[d][t]]++] = {static_cast<std::uint32_t>(d),
                                                      static_cast<std::uint32_t>(t)};
          }
        }
        parallel_for(0, id_space, [&](std::size_t q) {
          for (std::uint32_t v = visit_off[q]; v < visit_off[q + 1]; ++v) {
            const Visit vis = visits[v];
            for (std::size_t i = 0; i < k; ++i) {
              const KernelHit& h = dpu_hits[vis.dpu][vis.task * k + i];
              if (h.id == 0xFFFFFFFFu && h.dist == 0xFFFFFFFFu) break;  // pad
              state.accum[q].push(static_cast<float>(h.dist), h.id);
            }
          }
        });
      });

  // ---- accounting. Depth 1 (serial): host work overlaps the PIM batch and
  // a CL-on-PIM launch serializes before it, each step paying its full
  // critical path back-to-back. Depth >= 2: the timeline places this step's
  // stages around the other in-flight steps; step_seconds becomes the
  // timeline delta it contributed, so the deltas still sum to the makespan.
  // Routed queries (cl_external) were located by the caller — the cluster
  // router bills their CL once at the front-end, so the shard step must not
  // bill it again.
  std::size_t cl_queries = 0;
  for (std::size_t q = begin; q < end; ++q) {
    if (q >= state.cl_external.size() || state.cl_external[q] == 0) ++cl_queries;
  }
  const double host_cl = opts_.cl_on_pim ? 0.0 : model_host_cl_seconds(cl_queries);
  step.host_cl_seconds = host_cl;
  // Exact-rerank host cost: per q4 task, one full ADC LUT build plus <= k
  // candidate re-scores. Exactly 0 (preserving pre-ladder times) when the
  // step carried no q4 task. Overlapped with the PIM batch like host CL.
  std::size_t q4_tasks = 0;
  for (std::size_t d = 0; d < num_dpus; ++d) {
    for (const KernelTask& kt : dpu_tasks[d]) {
      if (ladder && task_is_q4(kt)) ++q4_tasks;
    }
  }
  const double host_rerank =
      q4_tasks == 0
          ? 0.0
          : static_cast<double>(q4_tasks) *
                (static_cast<double>(data_.m() * data_.cb_entries() * data_.dsub()) * 3.0 +
                 static_cast<double>(k * data_.m())) /
                opts_.host.flops_per_sec;
  step.host_rerank_seconds = host_rerank;
  const double host_side = host_cl + host_rerank;
  step.pim_batch_seconds = batch.total_seconds();
  step.transfer_in_seconds = batch.transfer_in_seconds;
  step.transfer_out_seconds = batch.transfer_out_seconds;
  step.dpu_seconds = batch.dpu_seconds;
  step.deferred = state.carried.size();

  PipelineSchedule sched;
  if (depth == 1) {
    step.step_seconds = step.cl_pim_seconds + std::max(host_side, batch.total_seconds());
    const double base = std::max(state.last_complete_seconds, state.submit_hint_seconds);
    step.submit_seconds = base;
    step.complete_seconds = base + step.step_seconds;
  } else {
    PipelineStageTimes stages;
    stages.transfer_in_seconds = batch.transfer_in_seconds;
    stages.launch_overhead_seconds = batch.launch_overhead_seconds;
    stages.compute_seconds = batch.dpu_seconds;
    stages.transfer_out_seconds = batch.transfer_out_seconds;
    stages.host_seconds = host_side;
    sched = state.pipeline->finish_batch(stages);
    const double base = std::max(state.last_complete_seconds, sched.submit_seconds);
    step.submit_seconds = base;
    step.complete_seconds = sched.done_seconds;
    step.step_seconds = sched.done_seconds - base;
  }
  state.last_complete_seconds = step.complete_seconds;
  ++state.step_index;

  st.total_seconds += step.step_seconds;
  st.host_cl_seconds += host_cl;
  st.host_rerank_seconds += host_rerank;
  st.transfer_in_seconds += batch.transfer_in_seconds;
  st.transfer_out_seconds += batch.transfer_out_seconds;
  st.dpu_busy_seconds += batch.dpu_seconds;
  for (std::size_t d = 0; d < num_dpus; ++d) {
    st.per_dpu_seconds[d] += batch.per_dpu_seconds[d];
    step.tasks += dpu_tasks[d].size();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      st.phase_dpu_seconds[p] += pim_->dpu_phase_seconds(d, static_cast<Phase>(p));
    }
  }
  st.tasks += step.tasks;
  st.counters.add(pim_->aggregate_counters());
  ++st.batches;
  st.batch_seconds.push_back(step.step_seconds);
  // Restamp from the cumulative total so streaming clients (CLI q4 path,
  // cluster shards, serving) see energy without a batch-mode search() wrap.
  st.energy_joules = opts_.energy.pim_energy_joules(opts_.pim, st.total_seconds);

  if (trace_ != nullptr) {
    std::vector<std::size_t> tasks_per_dpu(num_dpus);
    for (std::size_t d = 0; d < num_dpus; ++d) tasks_per_dpu[d] = dpu_tasks[d].size();
    if (depth == 1) {
      // locate_on_pim already advanced the cursor past the CL launch, so the
      // search launch and the overlapped host CL both start at now().
      const double exec0 = trace_->now();
      if (host_cl > 0.0) {
        trace_->span(trace_->lane("host/cl"), "host-cl", "host", exec0, host_cl,
                     {{"queries", static_cast<double>(cl_queries)}});
      }
      if (host_rerank > 0.0) {
        trace_->span(trace_->lane("host/rerank"), "host-rerank", "host",
                     exec0 + host_cl, host_rerank,
                     {{"q4_tasks", static_cast<double>(q4_tasks)}});
      }
      trace_launch(exec0, batch, "search", tasks_per_dpu);
      trace_->set_now(exec0 + std::max(host_side, batch.total_seconds()));
    } else {
      // Pipelined: every span sits at its scheduled absolute time, so
      // overlapping steps render as overlapping host-link/dpu spans.
      if (host_cl > 0.0) {
        trace_->span(trace_->lane("host/cl"), "host-cl", "host", sched.host_start,
                     host_cl, {{"queries", static_cast<double>(cl_queries)}});
      }
      if (host_rerank > 0.0) {
        trace_->span(trace_->lane("host/rerank"), "host-rerank", "host",
                     sched.host_start + host_cl, host_rerank,
                     {{"q4_tasks", static_cast<double>(q4_tasks)}});
      }
      LaunchLayout layout;
      layout.in_start = sched.in_start;
      layout.launch_start = sched.compute_start;
      layout.launch_seconds = batch.launch_overhead_seconds;
      layout.kern_start = sched.compute_start + batch.launch_overhead_seconds;
      layout.out_start = sched.out_start;
      trace_launch_spans(layout, batch, "search", tasks_per_dpu);
      trace_->set_now(state.last_complete_seconds);
    }
  }
  return step;
}

double DrimAnnEngine::estimate_batch_seconds(std::size_t num_queries, std::size_t nprobe,
                                             std::size_t k) const {
  if (num_queries == 0) return 0.0;
  const SchedulerParams p = derive_scheduler_params(
      opts_.pim, data_.dim(), data_.m(), data_.cb_entries(), k, opts_.use_square_lut);
  // Layout means: a (query, cluster) visit costs one task per slice group.
  const std::size_t nlist = data_.nlist();
  double total_slices = 0.0;
  double total_points = 0.0;
  for (std::uint32_t c = 0; c < nlist; ++c) {
    const auto& groups = layout_->slice_groups(c);
    total_slices += static_cast<double>(groups.size());
    for (const auto& g : groups) {
      if (!g.empty()) total_points += layout_->shard(g.front()).size();
    }
  }
  const double mean_slices = nlist > 0 ? total_slices / static_cast<double>(nlist) : 0.0;
  const double mean_points = total_slices > 0 ? total_points / total_slices : 0.0;
  const double tasks = static_cast<double>(num_queries) *
                       static_cast<double>(std::min<std::size_t>(nprobe, nlist)) *
                       mean_slices;
  const double cycles = tasks * (p.l_lut + mean_points * (p.l_calu + p.l_sortu));
  const PimConfig& cfg = opts_.pim;
  const double dpu_s = cycles / static_cast<double>(cfg.num_dpus) /
                       cfg.effective_ipc() * cfg.seconds_per_cycle();
  const double in_bytes = static_cast<double>(num_queries * data_.dim() * 2);
  const double out_bytes = tasks * static_cast<double>(k * sizeof(KernelHit));
  const double xfer_s = (in_bytes + out_bytes) / cfg.host_link_bytes_per_sec;
  if (pipeline_depth() <= 1) return cfg.launch_overhead_sec + dpu_s + xfer_s;
  // Steady state of a depth >= 2 pipeline: consecutive batches overlap their
  // stages, so each step is paced by the bottleneck resource — the DPU array
  // (barrier overhead + slowest DPU) or the shared half-duplex host link —
  // not by the sum of stages (updated Eq. 15).
  return std::max(cfg.launch_overhead_sec + dpu_s, xfer_s);
}

std::vector<std::vector<Neighbor>> DrimAnnEngine::search(const FloatMatrix& queries,
                                                         std::size_t k, std::size_t nprobe,
                                                         DrimSearchStats* stats,
                                                         Precision precision) {
  const std::size_t nq = queries.count();

  DrimSearchStats local;
  DrimSearchStats& st = stats != nullptr ? *stats : local;
  st = DrimSearchStats{};
  st.per_dpu_seconds.assign(pim_->num_dpus(), 0.0);
  st.index_load_seconds = index_load_seconds_;
  validate_staging(k);

  SearchBatchState state;
  enqueue_queries(state, queries, k, nprobe, precision);

  const std::size_t batch_queries = opts_.batch_size == 0 ? nq : opts_.batch_size;
  while (state.next_query < nq || state.has_deferred()) {
    // The final chunk flushes the filter so nothing is left behind.
    const bool flush = state.next_query + batch_queries >= nq;
    search_batch(state, batch_queries, flush, &st);
  }

  st.energy_joules = opts_.energy.pim_energy_joules(opts_.pim, st.total_seconds);

  std::vector<std::vector<Neighbor>> results(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    results[q] = state.take_results(static_cast<std::uint32_t>(q));
  }
  return results;
}

}  // namespace drim

// drim — command-line front end for the DRIM-ANN library.
//
//   drim gen    --out-base base.bvecs --out-queries q.fvecs --out-learn l.fvecs
//               [--n 50000] [--queries 200] [--dim 128] [--deep] [--seed 42]
//   drim build  --base base.bvecs --learn l.fvecs --out index.drim
//               [--nlist 128] [--m 32] [--cb 256] [--variant pq|opq|dpq]
//   drim info   --index index.drim
//   drim search --index index.drim --queries q.fvecs [--base base.bvecs]
//               [--k 10] [--nprobe 16] [--gt gt.ivecs]
//               [--backend cpu|drim] [--platform sim|analytic] [--dpus 64]
//               [--pipeline-depth 2] [--batch-size 0] [--rerank 0]
//               [--precision full|q4]
//               [--shards 1] [--shard-replication 0.1]
//               [--trace out.json]
//   drim gt     --base base.bvecs --queries q.fvecs --out gt.ivecs [--k 100]
//   drim serve  --index index.drim --queries q.fvecs [--qps 1000]
//               [--requests 1024] [--max-batch 32] [--max-wait-us 0]
//               [--slo-ms 0] [--arrivals poisson|onoff] [--skew 0]
//               [--k 10] [--nprobe 16] [--dpus 64] [--seed 42]
//               [--backend cpu|drim] [--platform sim|analytic]
//               [--pipeline-depth 2] [--no-admission] [--flush-every 4]
//               [--precision full|q4] [--min-rung 0]
//               [--shards 1] [--shard-replication 0.1]
//               [--trace out.json] [--metrics out.csv|out.json]
//               [--snapshot-ms 0]
//               [--update-trace 0] [--update-skew 0] [--update-inserts 0.5]
//               [--publish-every 8] [--relayout-every 0] [--split-threshold 0]
//
// --shards N serves the index from an N-shard cluster tier (drim backend
// only): clusters are partitioned across N PIM nodes by the heat-balancing
// planner, the hottest --shard-replication fraction is replicated, and a
// front-end router dispatches each query to the owners of its probed
// clusters, merging partial top-k lists. serve prints per-shard health.
//
// search runs the CPU baseline by default; --backend drim (or the legacy
// --pim alias) runs the DRIM engine and prints its modeled timing report.
// --platform picks the PIM platform under the drim backend: `sim` is the
// byte-level functional simulator, `analytic` charges the same cost tables
// without simulating MRAM (fast at paper-scale DPU counts; identical
// neighbors via the host-exact replay). --rerank R searches R candidates and
// re-ranks them exactly (requires --base). --pipeline-depth D keeps up to D
// batches in flight so host-link transfers overlap DPU compute (1 = serial;
// results are bit-identical at every depth, only the modeled timeline moves).
//
// --precision picks the rung of the quantization ladder (drim backend only):
// `full` is the stock 8-bit PQ path, `q4` runs the packed 4-bit codes with
// the host exact-rerank tail — faster at lower recall. --min-rung 1 (serve)
// turns on degrade-before-shed admission: requests whose full-precision
// latency prediction blows the SLO are retried against the q4-rung
// prediction and served degraded instead of shed when it fits. Either flag
// builds the engine's q4 tables (enable_q4).
//
// serve replays an open-loop request trace (timestamped arrivals drawn from
// the query file) through the online serving runtime — dynamic batching,
// admission control, tail-latency accounting — on any backend (default
// drim). --max-wait-us/--slo-ms default to multiples of the backend's
// Eq. 15 batch-time estimate (printed) when left at 0.
//
// --update-trace R interleaves R mutations per search request (inserts drawn
// from the query pool, deletes Zipf-skewed by --update-skew with insert
// fraction --update-inserts) through the mutable-index writer; snapshots
// publish to the backend every --publish-every batches, the layout re-plans
// from observed traffic every --relayout-every batches (0 = never), and
// --split-threshold T splits any cluster whose live size exceeds T.
//
// --trace writes a Chrome-trace / Perfetto JSON timeline of the run (device
// phase spans, host phases, serve-layer events); open it at
// ui.perfetto.dev. --metrics (serve only) writes periodic runtime snapshots
// (queue depth, EWMA batch time, shed rate) as CSV or JSON, sampled every
// --snapshot-ms of virtual time.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "backend/backend_factory.hpp"
#include "baseline/cpu_ivfpq.hpp"
#include "cluster/cluster_backend.hpp"
#include "common/io.hpp"
#include "common/timer.hpp"
#include "core/flat_search.hpp"
#include "core/precision.hpp"
#include "core/rerank.hpp"
#include "core/serialize.hpp"
#include "data/recall.hpp"
#include "data/synthetic.hpp"
#include "drim/engine.hpp"
#include "obs/trace.hpp"
#include "serve/runtime.hpp"

namespace {

using namespace drim;

/// Minimal --key value argument map.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "1";  // boolean flag
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  /// Strictly-parsed integer knob: the value must be a whole non-negative
  /// number inside [min_value, max_value]. Garbage, trailing junk, negatives,
  /// and out-of-range values exit 2 at parse time with an error naming the
  /// flag and the legal range, instead of failing deep inside the engine.
  std::size_t get_size_checked(const std::string& key, std::size_t fallback,
                               std::size_t min_value, std::size_t max_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    const bool numeric = end != text.c_str() && end != nullptr && *end == '\0' &&
                         errno == 0 && text.find('-') == std::string::npos;
    if (!numeric || parsed < min_value || parsed > max_value) {
      std::fprintf(stderr,
                   "invalid --%s value '%s': expected an integer in [%zu, %zu]\n",
                   key.c_str(), text.c_str(), min_value, max_value);
      std::exit(2);
    }
    return static_cast<std::size_t>(parsed);
  }
  /// Strictly-parsed floating-point knob with the same contract.
  double get_double_checked(const std::string& key, double fallback,
                            double min_value, double max_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || end == nullptr || *end != '\0' ||
        !(parsed >= min_value && parsed <= max_value)) {
      std::fprintf(stderr,
                   "invalid --%s value '%s': expected a number in [%g, %g]\n",
                   key.c_str(), text.c_str(), min_value, max_value);
      std::exit(2);
    }
    return parsed;
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

ByteDataset load_base(const std::string& path) {
  const auto file = read_bvecs(path);
  ByteDataset base(file.count, file.dim);
  std::copy(file.data.begin(), file.data.end(), base.data());
  return base;
}

FloatMatrix load_floats(const std::string& path) {
  const auto file = read_fvecs(path);
  FloatMatrix m(file.count, file.dim);
  std::copy(file.data.begin(), file.data.end(), m.data());
  return m;
}

void write_base(const std::string& path, const ByteDataset& base) {
  VecFile<std::uint8_t> file;
  file.count = base.count();
  file.dim = base.dim();
  file.data.assign(base.data(), base.data() + base.count() * base.dim());
  write_bvecs(path, file);
}

void write_floats(const std::string& path, const FloatMatrix& m) {
  VecFile<float> file;
  file.count = m.count();
  file.dim = m.dim();
  file.data.assign(m.data(), m.data() + m.count() * m.dim());
  write_fvecs(path, file);
}

int cmd_gen(const Args& args) {
  SyntheticSpec spec;
  spec.num_base = args.get_size("n", 50'000);
  spec.num_queries = args.get_size("queries", 200);
  spec.num_learn = args.get_size("learn", spec.num_base / 5);
  spec.dim = args.get_size("dim", 128);
  spec.num_components = args.get_size("components", 64);
  spec.seed = args.get_size("seed", 42);

  const SyntheticData data =
      args.has("deep") ? make_deep_like(spec) : make_sift_like(spec);
  write_base(args.require("out-base"), data.base);
  write_floats(args.require("out-queries"), data.queries);
  write_floats(args.require("out-learn"), data.learn);
  std::printf("wrote %zu base (dim %zu), %zu queries, %zu learn vectors\n",
              data.base.count(), data.base.dim(), data.queries.count(),
              data.learn.count());
  return 0;
}

int cmd_build(const Args& args) {
  const ByteDataset base = load_base(args.require("base"));
  const FloatMatrix learn = load_floats(args.require("learn"));

  IvfPqParams params;
  params.nlist = args.get_size("nlist", 128);
  params.pq.m = args.get_size("m", 32);
  params.pq.cb_entries = args.get_size("cb", 256);
  const std::string variant = args.get("variant", "pq");
  if (variant == "opq") {
    params.variant = PQVariant::kOPQ;
  } else if (variant == "dpq") {
    params.variant = PQVariant::kDPQ;
  } else if (variant != "pq") {
    std::fprintf(stderr, "unknown variant %s (pq|opq|dpq)\n", variant.c_str());
    return 2;
  }

  WallTimer timer;
  IvfPqIndex index;
  index.train(learn, params);
  const double train_s = timer.seconds();
  timer.reset();
  index.add(base);
  std::printf("trained in %.1fs, added %zu vectors in %.1fs\n", train_s,
              index.ntotal(), timer.seconds());
  save_index(index, args.require("out"));
  std::printf("saved index to %s\n", args.get("out").c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const IvfPqIndex index = load_index(args.require("index"));
  const char* variants[] = {"PQ", "OPQ", "DPQ"};
  std::printf("DRIM index: %zu vectors, dim %zu\n", index.ntotal(), index.dim());
  std::printf("  variant    : %s\n", variants[static_cast<int>(index.variant())]);
  std::printf("  nlist      : %zu\n", index.nlist());
  std::printf("  M x CB     : %zu x %zu (%zu-byte codes)\n", index.pq().m(),
              index.pq().cb_entries(), index.code_size());
  const auto sizes = index.list_sizes();
  std::size_t mn = SIZE_MAX, mx = 0, empty = 0;
  for (std::size_t s : sizes) {
    mn = std::min(mn, s);
    mx = std::max(mx, s);
    empty += (s == 0);
  }
  std::printf("  cluster sz : min %zu / max %zu, %zu empty\n", mn, mx, empty);
  return 0;
}

int cmd_gt(const Args& args) {
  const ByteDataset base = load_base(args.require("base"));
  const FloatMatrix queries = load_floats(args.require("queries"));
  const std::size_t k = args.get_size("k", 100);
  const auto gt = flat_search_all(base, queries, k);

  VecFile<std::int32_t> out;
  out.count = gt.size();
  out.dim = k;
  for (const auto& row : gt) {
    for (std::size_t i = 0; i < k; ++i) {
      out.data.push_back(i < row.size() ? static_cast<std::int32_t>(row[i].id) : -1);
    }
  }
  write_ivecs(args.require("out"), out);
  std::printf("wrote exact top-%zu for %zu queries\n", k, gt.size());
  return 0;
}

std::vector<std::vector<Neighbor>> load_gt(const std::string& path) {
  const auto file = read_ivecs(path);
  std::vector<std::vector<Neighbor>> gt(file.count);
  for (std::size_t q = 0; q < file.count; ++q) {
    for (std::size_t i = 0; i < file.dim; ++i) {
      const std::int32_t id = file.row(q)[i];
      if (id >= 0) gt[q].push_back({static_cast<float>(i), static_cast<std::uint32_t>(id)});
    }
  }
  return gt;
}

/// --precision {full,q4}: the ladder rung requests run at (search: every
/// query; serve: the trace default). Unknown values exit 2 at parse time.
Precision precision_from_args(const Args& args) {
  const std::string text = args.get("precision", "full");
  try {
    return parse_precision(text);
  } catch (const std::exception&) {
    std::fprintf(stderr, "invalid --precision value '%s': expected full|q4\n",
                 text.c_str());
    std::exit(2);
  }
}

/// --min-rung {0,1}: the cheapest rung admission control may degrade a
/// request to under predicted SLO violation (0 = never degrade, shed only).
std::size_t min_rung_from_args(const Args& args) {
  return args.get_size_checked("min-rung", 0, 0, 1);
}

/// Backend selection shared by search and serve: --backend {drim,cpu} with
/// the legacy --pim boolean as an alias for --backend drim; --platform
/// {sim,analytic} picks the PIM platform under the drim backend.
std::unique_ptr<AnnBackend> backend_from_args(const Args& args, const IvfPqIndex& index,
                                              const FloatMatrix& sample_queries,
                                              std::size_t nprobe,
                                              const std::string& default_backend) {
  const BackendKind kind = parse_backend_kind(
      args.get("backend", args.has("pim") ? "drim" : default_backend));
  DrimEngineOptions opts;
  opts.pim.num_dpus = args.get_size_checked("dpus", 64, 1, 1'000'000);
  opts.heat_nprobe = nprobe;
  opts.platform = parse_pim_platform(args.get("platform", "sim"));
  opts.pipeline_depth =
      args.get_size_checked("pipeline-depth", opts.pipeline_depth, 1, 64);
  opts.batch_size = args.get_size_checked("batch-size", opts.batch_size, 0, 1 << 20);
  // Any request for the cheap rung — static (--precision q4) or adaptive
  // (--min-rung >= 1) — needs the engine's q4 tables built.
  opts.enable_q4 = precision_from_args(args) == Precision::kQ4 ||
                   min_rung_from_args(args) >= 1;
  CpuBackendOptions cpu_opts;
  const std::size_t shards = args.get_size_checked("shards", 1, 1, 4096);
  if (shards > 1 || args.has("shard-replication")) {
    cluster::ClusterOptions copts;
    copts.num_shards = shards;
    copts.replication_fraction = args.get_double_checked(
        "shard-replication", copts.replication_fraction, 0.0, 1.0);
    return cluster::make_cluster_backend(kind, index, sample_queries, opts, copts,
                                         cpu_opts);
  }
  return make_backend(kind, index, sample_queries, opts, cpu_opts);
}

/// Print the cluster tier's per-shard health table (serve, sharded runs).
void print_shard_health(const AnnBackend& backend) {
  const std::vector<ShardHealth> health = backend.shard_health();
  if (health.empty()) return;
  std::printf("shard health:\n");
  for (const ShardHealth& h : health) {
    std::printf("  shard %u%s: %zu queries, %zu tasks, %zu queued, "
                "%zu fallbacks, busy %.3f ms\n",
                h.shard, h.draining ? " (draining)" : "", h.dispatched_queries,
                h.dispatched_tasks, h.queue_tasks, h.fallback_tasks,
                h.busy_seconds * 1e3);
  }
}

int cmd_search(const Args& args) {
  const IvfPqIndex index = load_index(args.require("index"));
  const FloatMatrix queries = load_floats(args.require("queries"));
  const std::size_t k = args.get_size("k", 10);
  const std::size_t nprobe = args.get_size("nprobe", 16);
  const std::size_t rerank = args.get_size("rerank", 0);
  const std::size_t fetch_k = rerank > 0 ? rerank : k;

  std::unique_ptr<AnnBackend> backend =
      backend_from_args(args, index, queries, nprobe, "cpu");
  obs::TraceRecorder recorder;
  if (args.has("trace")) backend->set_trace(&recorder);
  const Precision rung = precision_from_args(args);
  std::vector<std::vector<Neighbor>> results;
  if (rung == Precision::kFull) {
    results = backend->search(queries, fetch_k, nprobe);
  } else {
    // Cheap-rung search goes through the streaming seam: the precision-aware
    // enqueue is per-query, so every backend (drim, cluster router) carries
    // the rung; backends without a ladder ignore it and serve full.
    backend->reset_stream();
    std::vector<std::uint32_t> handles;
    handles.reserve(queries.count());
    for (std::size_t qi = 0; qi < queries.count(); ++qi) {
      handles.push_back(backend->enqueue(queries.row(qi), fetch_k, nprobe, rung));
    }
    bool pending = true;
    while (pending) {
      backend->step(0, /*flush=*/true);
      pending = false;
      for (std::uint32_t h : handles) {
        if (!backend->finished(h)) {
          pending = true;
          break;
        }
      }
    }
    results.reserve(handles.size());
    for (std::uint32_t h : handles) results.push_back(backend->take_results(h));
  }
  if (args.has("trace")) {
    recorder.write_chrome_trace_file(args.get("trace"));
    std::printf("wrote %zu trace events (%zu lanes) to %s\n",
                recorder.num_events(), recorder.num_lanes(),
                args.get("trace").c_str());
  }
  const BackendStats stats = backend->stats();
  std::printf("backend %s: modeled %.3f ms, %.0f QPS, %zu tasks in %zu batches "
              "(host wall %.3f ms)\n",
              backend->name().c_str(), stats.total_seconds * 1e3, stats.qps(),
              stats.tasks, stats.batches, stats.host_wall_seconds * 1e3);
  if (const auto* drim_backend = dynamic_cast<const DrimBackend*>(backend.get())) {
    std::printf("  energy: %.2f J modeled\n",
                drim_backend->engine_stats().energy_joules);
  }
  print_shard_health(*backend);

  if (rerank > 0) {
    const ByteDataset base = load_base(args.require("base"));
    results = rerank_exact_all(base, queries, results, k);
    std::printf("re-ranked %zu candidates down to top-%zu exactly\n", rerank, k);
  }

  if (args.has("gt")) {
    const auto gt = load_gt(args.get("gt"));
    std::printf("recall@%zu = %.4f\n", k, mean_recall_at_k(results, gt, k));
  }

  // Print the first few result rows.
  for (std::size_t q = 0; q < std::min<std::size_t>(3, results.size()); ++q) {
    std::printf("q%zu:", q);
    for (const Neighbor& n : results[q]) std::printf(" %u", n.id);
    std::printf("\n");
  }
  return 0;
}

int cmd_serve(const Args& args) {
  const IvfPqIndex index = load_index(args.require("index"));
  const FloatMatrix pool = load_floats(args.require("queries"));
  const std::size_t k = args.get_size("k", 10);
  const std::size_t nprobe = args.get_size("nprobe", 16);

  std::unique_ptr<AnnBackend> backend =
      backend_from_args(args, index, pool, nprobe, "drim");

  serve::ServeParams sp;
  sp.batcher.max_batch = args.get_size("max-batch", 32);
  sp.flush_every = args.get_size("flush-every", 4);
  sp.admission.enabled = !args.has("no-admission");
  sp.admission.degrade_to_q4 = min_rung_from_args(args) >= 1;
  sp.snapshot_period_s = args.get_double("snapshot-ms", 0.0) * 1e-3;
  if (sp.snapshot_period_s <= 0.0 && (args.has("metrics") || args.has("trace"))) {
    sp.snapshot_period_s = 1e-3;  // something to plot when output is requested
  }
  const double est = backend->estimate_batch_seconds(sp.batcher.max_batch, nprobe, k);
  const double wait_us = args.get_double("max-wait-us", 0.0);
  sp.batcher.max_wait_s = wait_us > 0 ? wait_us * 1e-6 : 2.0 * est;
  const double slo_ms = args.get_double("slo-ms", 0.0);
  sp.admission.slo_s = slo_ms > 0 ? slo_ms * 1e-3 : 10.0 * est;

  serve::WorkloadParams wp;
  wp.offered_qps = args.get_double("qps", 1000.0);
  wp.num_requests = args.get_size("requests", 1024);
  wp.query_skew = args.get_double("skew", 0.0);
  wp.k_choices = {static_cast<std::uint32_t>(k)};
  wp.nprobe_choices = {static_cast<std::uint32_t>(nprobe)};
  wp.seed = args.get_size("seed", 42);
  const std::string arrivals = args.get("arrivals", "poisson");
  if (arrivals == "onoff") {
    wp.arrivals = serve::ArrivalProcess::kOnOff;
  } else if (arrivals != "poisson") {
    std::fprintf(stderr, "unknown arrival process %s (poisson|onoff)\n",
                 arrivals.c_str());
    return 2;
  }

  std::printf("serving %zu requests at %.0f qps (%s, skew %.2f) on backend %s\n",
              wp.num_requests, wp.offered_qps, arrivals.c_str(), wp.query_skew,
              backend->name().c_str());
  std::printf("batcher: max %zu / %.0f us wait; SLO %.3f ms (admission %s); "
              "est batch %.3f ms\n",
              sp.batcher.max_batch, sp.batcher.max_wait_s * 1e6,
              sp.admission.slo_s * 1e3, sp.admission.enabled ? "on" : "off",
              est * 1e3);

  auto trace = serve::generate_workload(pool.count(), wp);
  const Precision rung = precision_from_args(args);
  if (rung != Precision::kFull) {
    for (serve::Request& req : trace) req.precision = rung;
  }
  serve::ServingRuntime runtime(*backend, pool, sp);

  // Mutable-index serving: interleave an update trace and publish on cadence.
  const double update_rate = args.get_double("update-trace", 0.0);
  const std::size_t relayout_every = args.get_size("relayout-every", 0);
  serve::UpdateTrace update_trace;
  std::unique_ptr<IndexWriter> writer;
  serve::UpdateStream updates;
  if (update_rate > 0.0 || relayout_every > 0) {
    if (update_rate > 0.0) {
      serve::UpdateWorkloadParams up;
      up.update_rate = update_rate;
      up.delete_skew = args.get_double("update-skew", 0.0);
      up.insert_fraction = args.get_double("update-inserts", 0.5);
      up.seed = args.get_size("seed", 42) + 1;
      update_trace = serve::generate_update_trace(trace, pool, index.ntotal(), up);
    }
    WriterParams writer_params;
    writer_params.split_threshold = args.get_size("split-threshold", 0);
    writer = std::make_unique<IndexWriter>(index, writer_params);
    updates.trace = &update_trace;
    updates.writer = writer.get();
    updates.publish_every_batches = args.get_size("publish-every", 8);
    updates.relayout_every_batches = relayout_every;
    runtime.set_update_stream(&updates);
    std::printf("updates: %zu ops (%.2f/search), publish every %zu batches, "
                "re-layout every %zu, split threshold %zu\n",
                update_trace.ops.size(), update_rate,
                updates.publish_every_batches, relayout_every,
                writer_params.split_threshold);
  }

  obs::TraceRecorder recorder;
  if (args.has("trace")) runtime.set_trace(&recorder);
  const serve::ServeResult res = runtime.run(trace);
  const serve::ServeReport& r = res.report;
  if (args.has("trace")) {
    recorder.write_chrome_trace_file(args.get("trace"));
    std::printf("wrote %zu trace events (%zu lanes) to %s\n",
                recorder.num_events(), recorder.num_lanes(),
                args.get("trace").c_str());
  }
  if (args.has("metrics")) {
    serve::write_snapshots_file(res.snapshots, args.get("metrics"));
    std::printf("wrote %zu metrics snapshots to %s\n", res.snapshots.size(),
                args.get("metrics").c_str());
  }

  std::printf("served %zu (%zu degraded) / shed %zu of %zu offered in %zu "
              "batches (makespan %.3f s)\n",
              r.served, r.degraded, r.shed, r.offered, res.batches,
              res.makespan_s);
  std::printf("latency ms: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f  max %.3f\n",
              r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms, r.max_ms);
  std::printf("queue wait: %.3f ms mean; throughput %.0f qps, goodput %.0f qps\n",
              r.mean_queue_wait_ms, r.throughput_qps, r.goodput_qps);
  std::printf("timeout rate %.1f%%, shed rate %.1f%%\n", 100.0 * r.timeout_rate,
              100.0 * r.shed_rate);
  if (writer != nullptr) {
    std::printf("updates: %zu applied (%zu ins / %zu del), %zu publishes "
                "(%.3f ms), %zu re-layouts (%.3f ms); index v%llu: %zu live, "
                "nlist %zu\n",
                updates.applied, updates.inserts, updates.deletes,
                updates.publishes, updates.publish_seconds * 1e3,
                updates.relayouts, updates.relayout_seconds * 1e3,
                static_cast<unsigned long long>(backend->snapshot_version()),
                writer->live_count(), writer->nlist());
  }
  print_shard_health(*backend);
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: drim <gen|build|info|gt|search|serve> [--key value ...]\n"
               "see the header of tools/drim_cli.cpp for the full reference\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "build") return cmd_build(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "gt") return cmd_gt(args);
    if (cmd == "search") return cmd_search(args);
    if (cmd == "serve") return cmd_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}

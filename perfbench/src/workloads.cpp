#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "cluster/cluster_backend.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "data/recall.hpp"
#include "drim/layout.hpp"
#include "serve/update_workload.hpp"

namespace perfbench {

using drim::AnnBackend;
using drim::BackendKind;
using drim::BackendStepStats;
using drim::DrimBackend;
using drim::FloatMatrix;
using drim::IvfPqIndex;
using drim::Neighbor;
using drim::PimPlatformKind;
using drim::WallTimer;
using drim::serve::Request;
using drim::serve::RequestRecord;
using drim::serve::ServeResult;
using drim::serve::ServingRuntime;

namespace {

// Independent streams derived from the workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

// ---- set-up ---------------------------------------------------------------

// What a user waits for before the first query: index train + add, then
// backend construction by `make`. Records setup_s and its parts.
template <typename Make>
auto timed_setup(const Constants& c, const Corpus& corpus, RunResult& r, Make make) {
  BuiltIndex built = build_index(c, corpus);
  WallTimer t;
  auto backend = make(*built.index);
  const double build_s = t.seconds();
  r.end_to_end.add("setup_s", built.train_s + built.add_s + build_s, "s");
  r.per_layer.add("core.train_s", built.train_s, "s");
  r.per_layer.add("core.add_s", built.add_s, "s");
  r.per_layer.add("backend.build_s", build_s, "s");
  std::printf("setup: train %.3f s, add %.3f s, backend %.3f s\n", built.train_s, built.add_s,
              build_s);
  return std::pair{std::move(built.index), std::move(backend)};
}

// Host throughput of the measured replays: requests completed per host-wall
// second of the fastest replay. The fastest of several identical replays is
// the estimate least disturbed by other load on the machine.
struct HostRate {
  std::vector<double> rates;
  double wall = 0.0;
  void add(std::size_t served, double seconds) {
    rates.push_back(static_cast<double>(served) / seconds);
    wall += seconds;
  }
  // Replay until at least `min_runs` replays and `seconds` of wall are done.
  bool more(double seconds, std::size_t min_runs) const {
    return rates.size() < min_runs || wall < seconds;
  }
  double qps() const { return *std::max_element(rates.begin(), rates.end()); }
  void report(const char* what, std::size_t size) const {
    std::printf("measured %zu %s of %zu requests in %.3f s host wall: best %.1f, median "
                "%.1f requests/s\n",
                rates.size(), what, size, wall, qps(), median(rates));
  }
  // Traced / untraced host wall of the same replay. The one traced replay is
  // compared with the median untraced replay, so both are typical replays.
  double overhead(double traced_rate) const { return median(rates) / traced_rate; }
};

// ---- a cluster of shards built from the public pieces ----------------------

struct Sharded {
  std::unique_ptr<AnnBackend> top;         // the cluster, wrapped or not
  TracedBackend* wrapper = nullptr;        // == top when wrapped
  std::vector<const DrimBackend*> engines;  // shard DRIM backends
};

// The cluster tier assembled from its public pieces (ShardPlan +
// estimate_heat + one backend per shard + the ClusterBackend constructor).
// `wrap` puts a TracedBackend around the cluster and around every shard.
Sharded make_sharded(const Constants& c, const IvfPqIndex& index, const FloatMatrix& sample,
                     bool wrap, SpanLog* log) {
  const std::size_t shards = c.size("shards");
  drim::DrimEngineOptions opts =
      engine_options(c, PimPlatformKind::kAnalytic, c.size("paper_dpus"));
  drim::cluster::ClusterOptions co;
  co.num_shards = shards;
  drim::cluster::ShardPlanParams pp;
  pp.num_shards = shards;
  pp.replication_fraction = co.replication_fraction;
  pp.replica_copies = co.replica_copies;
  pp.lut_cost_points = opts.layout.lut_cost_points;
  drim::cluster::ShardPlan plan(index.list_sizes(),
                                drim::estimate_heat(index, sample, opts.heat_nprobe), pp);
  Sharded out;
  std::vector<std::unique_ptr<AnnBackend>> members;
  for (std::uint32_t s = 0; s < shards; ++s) {
    drim::DrimEngineOptions per_shard = opts;
    per_shard.layout.owned_clusters = plan.owned_mask(s);
    auto backend = drim::make_backend(BackendKind::kDrim, index, sample, per_shard);
    out.engines.push_back(dynamic_cast<const DrimBackend*>(backend.get()));
    if (wrap) backend = std::make_unique<TracedBackend>(std::move(backend), log, 2);
    members.push_back(std::move(backend));
  }
  out.top = std::make_unique<drim::cluster::ClusterBackend>(index, std::move(plan),
                                                           std::move(members), co);
  if (wrap) {
    auto wrapper = std::make_unique<TracedBackend>(std::move(out.top), log, 1);
    out.wrapper = wrapper.get();
    out.top = std::move(wrapper);
  }
  return out;
}

// ---- closed-loop stream (batch_sim and the self-check) ---------------------

struct StreamPass {
  std::vector<std::vector<Neighbor>> results;  // per stream position
  std::vector<double> latency_s;               // consuming submit -> completion
  std::vector<BackendStepStats> steps;
  double makespan_s = 0.0;
  bool complete = true;
};

// Step the stream `step_size` queries at a time with the filter on, flushing
// every `flush_every`-th step and at the end until no deferred work is left.
// The caller keeps pipeline_depth() steps in flight: step i is submitted
// when step i - depth completes.
StreamPass drive_stream(AnnBackend& b, const FloatMatrix& pool,
                        const std::vector<Request>& stream, std::size_t step_size,
                        std::size_t flush_every) {
  b.reset_stream();
  const std::size_t n = stream.size();
  StreamPass p;
  p.results.resize(n);
  p.latency_s.assign(n, 0.0);
  std::vector<std::uint32_t> handle(n);
  std::vector<std::size_t> consumed(n), open;
  const std::size_t depth = b.pipeline_depth();
  auto run_step = [&](std::size_t fresh, bool flush) {
    const std::size_t i = p.steps.size();
    b.set_step_start(i >= depth ? p.steps[i - depth].complete_seconds : 0.0);
    p.steps.push_back(b.step(fresh, flush || (i + 1) % flush_every == 0));
    std::size_t kept = 0;
    for (const std::size_t q : open) {
      if (!b.finished(handle[q])) {
        open[kept++] = q;
        continue;
      }
      p.results[q] = b.take_results(handle[q]);
      p.latency_s[q] = p.steps.back().complete_seconds - p.steps[consumed[q]].submit_seconds;
    }
    open.resize(kept);
  };
  for (std::size_t pos = 0; pos < n; pos += step_size) {
    const std::size_t end = std::min(n, pos + step_size);
    for (std::size_t i = pos; i < end; ++i) {
      handle[i] = b.enqueue(pool.row(stream[i].query), stream[i].k, stream[i].nprobe);
      consumed[i] = p.steps.size();
      open.push_back(i);
    }
    run_step(end - pos, false);
  }
  while (b.has_deferred()) run_step(0, true);
  p.complete = open.empty();
  for (const auto& s : p.steps) p.makespan_s = std::max(p.makespan_s, s.complete_seconds);
  return p;
}

bool same_pass(const StreamPass& a, const StreamPass& b) {
  if (a.results.size() != b.results.size() || a.steps.size() != b.steps.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (!same_neighbours(a.results[i], b.results[i]) || a.latency_s[i] != b.latency_s[i]) {
      return false;
    }
  }
  for (std::size_t s = 0; s < a.steps.size(); ++s) {
    if (a.steps[s].step_seconds != b.steps[s].step_seconds) return false;
  }
  return true;
}

// ---- serving replays --------------------------------------------------------

// Serve-level end-to-end metrics of the checked replay.
void add_serve_e2e(const Observed& o, double recall, Metrics& out) {
  std::vector<double> lat_ms;
  for (const RequestRecord& r : o.res.records) {
    if (!r.shed) lat_ms.push_back(1e3 * r.latency_s);
  }
  const auto& rep = o.res.report;
  out.add("recall_at_10", recall, "fraction");
  out.add("modeled_p50_ms", pct(lat_ms, 50.0), "ms");
  out.add("modeled_p99_ms", pct(lat_ms, 99.0), "ms");
  out.add("modeled_qps", rep.throughput_qps, "q/s");
  std::printf("modeled latency over %zu served requests (%zu beyond p99): p50 %.4f ms, "
              "p99 %.4f ms\n",
              lat_ms.size(), lat_ms.size() / 100, pct(lat_ms, 50.0), pct(lat_ms, 99.0));
  std::printf("offered %zu, served %zu, shed %zu, late %zu\n", rep.offered, rep.served,
              rep.shed, rep.slo_violations);
}

using Matched = std::vector<std::pair<const RequestRecord*, const HandleRecord*>>;

// Check every request of a wrapped replay: served + shed = offered, and each
// admitted request was served with k results under the handle of its pool
// row. Returns the (record, handle) pairs for the answer checks.
Matched match_requests(const Observed& o, const FloatMatrix& pool, std::size_t k,
                       RunResult& r) {
  Matched out;
  const auto& rep = o.res.report;
  if (rep.served + rep.shed != rep.offered || rep.offered != o.res.records.size()) {
    r.errors.push_back("served + shed != offered");
  }
  std::size_t h = 0;
  for (const RequestRecord& rec : o.res.records) {
    ++r.attempted;
    if (rec.shed) continue;
    const HandleRecord* hr = h < o.handles.size() ? &o.handles[h] : nullptr;
    ++h;
    if (hr == nullptr || !hr->taken || rec.results != k ||
        pool_row(pool, hr->query) != static_cast<std::int64_t>(rec.request.query)) {
      ++r.failed;
      if (r.errors.size() < 8) {
        r.errors.push_back("request " + std::to_string(rec.request.id) +
                           " has no matching answer");
      }
      continue;
    }
    out.emplace_back(&rec, hr);
  }
  return out;
}

// Compare answers with an offline search() of their pool rows.
void check_answers(const Matched& matched, const std::vector<std::uint32_t>& rows,
                   const std::vector<std::vector<Neighbor>>& reference, std::size_t pool,
                   RunResult& r) {
  std::vector<std::int64_t> ref_of(pool, -1);
  for (std::size_t i = 0; i < rows.size(); ++i) ref_of[rows[i]] = static_cast<std::int64_t>(i);
  for (const auto& [rec, hr] : matched) {
    const std::int64_t ref = ref_of[rec->request.query];
    if (ref >= 0 && same_neighbours(hr->results, reference[static_cast<std::size_t>(ref)])) {
      continue;
    }
    ++r.failed;
    if (r.errors.size() < 8) {
      r.errors.push_back("request " + std::to_string(rec->request.id) +
                         " differs from the offline search of its pool row");
    }
  }
}

void check_recall(double recall, double bar, RunResult& r) {
  if (recall < bar) {
    r.errors.push_back("recall_at_10 " + std::to_string(recall) + " below " +
                       std::to_string(bar));
  }
}

}  // namespace

// ============================================================================
// serve_zipf: paper-scale open-loop serving on the analytic platform.
// ============================================================================
RunResult run_serve_zipf(const Constants& c, const RunOptions& opt) {
  RunResult r;
  const std::size_t k = c.size("k"), nprobe = c.size("nprobe");
  const Corpus corpus = make_corpus(c, derive(opt.seed, 0));
  const FloatMatrix& pool = corpus.data.queries;
  const auto trace = zipf_trace(c, pool.count(), c.num("nominal_qps"),
                                c.size("serve_requests"), derive(opt.seed, 1));
  const auto rows = distinct_rows(trace);
  WallTimer t;
  const auto truth = exact_ground_truth(corpus, rows, k);
  r.per_layer.add("data.gen_s", corpus.gen_seconds, "s");
  r.per_layer.add("data.ground_truth_s", t.seconds(), "s");

  auto [index, wrapped] = timed_setup(c, corpus, r, [&](const IvfPqIndex& idx) {
    return std::make_unique<TracedBackend>(
        drim::make_backend(BackendKind::kDrim, idx, corpus.data.learn,
                           engine_options(c, PimPlatformKind::kAnalytic,
                                          c.size("paper_dpus"))),
        nullptr, 1);
  });
  r.per_layer.add("mem.rss_after_setup_mb", rss_mb(), "MB");
  AnnBackend& plain = wrapped->inner();
  const auto params = serve_params(c);

  // Checked replay: wrapped and untimed; it doubles as the warm-up.
  ServingRuntime checked_rt(*wrapped, pool, params);
  const Observed checked =
      observe(checked_rt.run(trace), *wrapped, {dynamic_cast<const DrimBackend*>(&plain)});
  const Matched matched = match_requests(checked, pool, k, r);

  // Measured replays: unwrapped, for at least --seconds.
  ServingRuntime rt(plain, pool, params);
  HostRate host;
  while (host.more(opt.seconds, c.size("min_replays"))) {
    WallTimer w;
    const ServeResult res = rt.run(trace);
    host.add(res.report.served, w.seconds());
    if (!same_records(res.records, checked.res.records)) {
      r.errors.push_back("modeled outcome of a replay differs from the checked replay");
      break;
    }
  }
  host.report("replays", trace.size());

  // Offline reference: search() of every requested pool row.
  check_answers(matched, rows, plain.search(gather_rows(pool, rows), k, nprobe), pool.count(),
                r);
  std::vector<double> recalls;
  for (const auto& [rec, hr] : matched) {
    recalls.push_back(drim::recall_at_k(hr->results, truth[rec->request.query], k));
  }
  check_recall(mean(recalls), c.num("min_recall"), r);

  add_serve_e2e(checked, mean(recalls), r.end_to_end);
  r.end_to_end.add("host_qps", host.qps(), "req/s");
  add_serve_layer_metrics(c, checked, r.per_layer);
  add_pim_metrics(checked.engines, checked.res.report.served, r.per_layer);

  if (opt.trace) {
    wrapped->set_log(&r.spans);
    ServingRuntime traced_rt(*wrapped, pool, params);
    const auto root = r.spans.open("serve.run", 0);
    WallTimer w;
    const ServeResult traced = traced_rt.run(trace);
    const double traced_qps = static_cast<double>(traced.report.served) / w.seconds();
    r.spans.close(root);
    wrapped->set_log(nullptr);
    if (!same_records(traced.records, checked.res.records)) {
      r.errors.push_back("traced replay differs from the untraced replays");
    }
    r.per_layer.add("serve.self_wall_s", self_time(r.spans, 0), "s");
    add_backend_wall_metrics(r.spans, r.per_layer);
    r.per_layer.add("trace.overhead", host.overhead(traced_qps), "ratio");

    // Offered-rate ladder: highest rate whose SLO miss rate stays in bound.
    double best = 0.0;
    for (const double qps : c.list("ladder_qps")) {
      const auto rung = zipf_trace(c, pool.count(), qps, c.size("ladder_requests"),
                                   derive(opt.seed, 2));
      const ServeResult res = rt.run(rung);
      const double miss =
          static_cast<double>(res.report.shed + res.report.slo_violations) /
          static_cast<double>(res.report.offered);
      std::printf("ladder %.0f qps: slo miss rate %.4f, p99 %.3f ms, goodput %.1f req/s\n",
                  qps, miss, res.report.p99_ms, res.report.goodput_qps);
      if (miss <= c.num("ladder_max_miss")) best = std::max(best, qps);
    }
    if (best == 0.0) {
      std::printf("ladder: no rate meets slo miss rate <= %g; max_qps_at_slo is 0\n",
                  c.num("ladder_max_miss"));
    }
    r.per_layer.add("serve.max_qps_at_slo", best, "req/s");
  }
  r.end_to_end.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

// ============================================================================
// batch_sim: closed-loop batch search on the byte-level sim platform.
// ============================================================================
RunResult run_batch_sim(const Constants& c, const RunOptions& opt) {
  RunResult r;
  const std::size_t k = c.size("k"), nprobe = c.size("nprobe");
  const std::size_t step_size = c.size("max_batch");
  const std::size_t flush_every = c.size("batch_flush_every");
  const Corpus corpus = make_corpus(c, derive(opt.seed, 0));
  const FloatMatrix& pool = corpus.data.queries;
  // Zipf draws over the pool; arrival times are unused (closed loop).
  const auto stream = zipf_trace(c, pool.count(), c.num("nominal_qps"),
                                 c.size("batch_queries"), derive(opt.seed, 3));
  const auto rows = distinct_rows(stream);
  WallTimer t;
  const auto truth = exact_ground_truth(corpus, rows, k);
  r.per_layer.add("data.gen_s", corpus.gen_seconds, "s");
  r.per_layer.add("data.ground_truth_s", t.seconds(), "s");

  auto [index, wrapped] = timed_setup(c, corpus, r, [&](const IvfPqIndex& idx) {
    return std::make_unique<TracedBackend>(
        drim::make_backend(BackendKind::kDrim, idx, corpus.data.learn,
                           engine_options(c, PimPlatformKind::kSim, c.size("sim_dpus"))),
        nullptr, 1);
  });
  r.per_layer.add("mem.rss_after_setup_mb", rss_mb(), "MB");
  AnnBackend& plain = wrapped->inner();

  // A warm-up pass (it touches the MRAM staging pages), then measured passes.
  // The first measured pass gives the modeled metrics; later ones must
  // reproduce it bit for bit.
  drive_stream(plain, pool, stream, step_size, flush_every);
  StreamPass first;
  std::vector<drim::DrimSearchStats> stats;
  HostRate host;
  while (host.more(opt.seconds, c.size("min_replays"))) {
    WallTimer w;
    StreamPass pass = drive_stream(plain, pool, stream, step_size, flush_every);
    host.add(stream.size(), w.seconds());
    if (host.rates.size() == 1) {
      first = std::move(pass);
      stats.push_back(dynamic_cast<const DrimBackend&>(plain).engine_stats());
    } else if (!same_pass(pass, first)) {
      r.errors.push_back("modeled outcome of a pass differs from the first pass");
      break;
    }
  }
  host.report("passes", stream.size());
  if (!first.complete) r.errors.push_back("a query never finished");

  // Reference: offline search() on the analytic platform.
  const auto reference =
      drim::make_backend(BackendKind::kDrim, *index, corpus.data.learn,
                         engine_options(c, PimPlatformKind::kAnalytic, c.size("sim_dpus")))
          ->search(gather_rows(pool, rows), k, nprobe);
  std::vector<std::size_t> ref_of(pool.count(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) ref_of[rows[i]] = i;
  std::vector<double> recalls, lat_ms;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ++r.attempted;
    const std::uint32_t row = stream[i].query;
    recalls.push_back(drim::recall_at_k(first.results[i], truth[row], k));
    lat_ms.push_back(1e3 * first.latency_s[i]);
    if (first.results[i].size() != k ||
        !same_neighbours(first.results[i], reference[ref_of[row]])) {
      ++r.failed;
      if (r.errors.size() < 8) {
        r.errors.push_back("query " + std::to_string(i) +
                           " differs from the analytic offline search");
      }
    }
  }
  check_recall(mean(recalls), c.num("min_recall"), r);
  std::printf("modeled latency over %zu queries (%zu beyond p99): p50 %.4f ms, p99 %.4f ms\n",
              lat_ms.size(), lat_ms.size() / 100, pct(lat_ms, 50.0), pct(lat_ms, 99.0));
  const double modeled_qps = static_cast<double>(stream.size()) / first.makespan_s;
  r.end_to_end.add("recall_at_10", mean(recalls), "fraction");
  r.end_to_end.add("modeled_p50_ms", pct(lat_ms, 50.0), "ms");
  r.end_to_end.add("modeled_p99_ms", pct(lat_ms, 99.0), "ms");
  r.end_to_end.add("modeled_qps", modeled_qps, "q/s");
  r.end_to_end.add("host_qps", host.qps(), "req/s");
  add_pim_metrics(stats, stream.size(), r.per_layer);
  add_step_metrics(first.steps, plain.estimate_batch_seconds(step_size, nprobe, k), step_size,
                   r.per_layer);

  if (opt.trace) {
    wrapped->set_log(&r.spans);
    const auto root = r.spans.open("batch.pass", 0);
    WallTimer w;
    const StreamPass traced = drive_stream(*wrapped, pool, stream, step_size, flush_every);
    const double traced_qps = static_cast<double>(stream.size()) / w.seconds();
    r.spans.close(root);
    wrapped->set_log(nullptr);
    if (!same_pass(traced, first)) {
      r.errors.push_back("traced pass differs from the untraced passes");
    }
    add_backend_wall_metrics(r.spans, r.per_layer);
    r.per_layer.add("trace.overhead", host.overhead(traced_qps), "ratio");
  }
  r.end_to_end.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

// ============================================================================
// serve_sharded_updates: 2-shard cluster serving reads beside writes.
// ============================================================================
RunResult run_serve_sharded_updates(const Constants& c, const RunOptions& opt) {
  RunResult r;
  const std::size_t k = c.size("k"), nprobe = c.size("nprobe");
  const Corpus corpus = make_corpus(c, derive(opt.seed, 0));
  const FloatMatrix& pool = corpus.data.queries;
  const FloatMatrix& learn = corpus.data.learn;
  const auto trace = zipf_trace(c, pool.count(), c.num("nominal_qps"),
                                c.size("sharded_requests"), derive(opt.seed, 4));
  drim::serve::UpdateWorkloadParams up;
  up.update_rate = c.num("update_rate");
  up.insert_fraction = c.num("insert_fraction");
  up.delete_skew = c.num("delete_skew");
  up.seed = derive(opt.seed, 5);
  // Learn vectors are the insert payloads: the corpus distribution, new ids.
  const auto updates =
      drim::serve::generate_update_trace(trace, learn, c.size("num_base"), up);
  r.per_layer.add("data.gen_s", corpus.gen_seconds, "s");

  auto [index, first_backend] = timed_setup(c, corpus, r, [&](const IvfPqIndex& idx) {
    return make_sharded(c, idx, learn, true, nullptr);
  });
  r.per_layer.add("mem.rss_after_setup_mb", rss_mb(), "MB");
  const auto params = serve_params(c);
  drim::WriterParams wp;
  wp.split_threshold = static_cast<std::size_t>(
      c.num("split_factor") * static_cast<double>(index->ntotal()) /
      static_cast<double>(index->nlist()));

  // One replay on a fresh writer; the update stream mutates the backend
  // too, so every replay needs a cluster that starts at version 0.
  struct Outcome {
    ServeResult res;
    drim::serve::UpdateStream stream;
    double wall = 0.0;
  };
  auto replay = [&](AnnBackend& backend, TracedBackend* watched) {
    Outcome o;
    drim::IndexWriter writer(*index, wp);
    o.stream.trace = &updates;
    o.stream.writer = &writer;
    o.stream.publish_every_batches = c.size("publish_every");
    o.stream.relayout_every_batches = c.size("relayout_every");
    if (watched != nullptr) watched->watch_ops_applied(&o.stream.applied);
    ServingRuntime rt(backend, pool, params);
    rt.set_update_stream(&o.stream);
    WallTimer w;
    o.res = rt.run(trace);
    o.wall = w.seconds();
    if (watched != nullptr) watched->watch_ops_applied(nullptr);
    o.stream.writer = nullptr;
    return o;
  };

  // Checked replay on the set-up's wrapped cluster.
  const Outcome first = replay(*first_backend.top, first_backend.wrapper);
  const Observed checked = observe(first.res, *first_backend.wrapper, first_backend.engines);
  const Matched matched = match_requests(checked, pool, k, r);
  const auto& us = first.stream;
  if (us.applied != updates.ops.size()) r.errors.push_back("not every update op was applied");
  add_serve_layer_metrics(c, checked, r.per_layer);
  add_pim_metrics(checked.engines, checked.res.report.served, r.per_layer);
  {
    double max_busy = 0.0, sum_busy = 0.0, fallback = 0.0, tasks = 0.0;
    for (const auto& h : checked.health) {
      max_busy = std::max(max_busy, h.busy_seconds);
      sum_busy += h.busy_seconds;
      fallback += static_cast<double>(h.fallback_tasks);
      tasks += static_cast<double>(h.dispatched_tasks);
    }
    const double mean_busy =
        checked.health.empty() ? 0.0 : sum_busy / static_cast<double>(checked.health.size());
    r.per_layer.add("cluster.shard_busy_imbalance",
                    mean_busy > 0 ? max_busy / mean_busy : 0.0, "ratio");
    r.per_layer.add("cluster.tasks_per_query",
                    tasks / std::max<double>(1.0, static_cast<double>(checked.res.report.served)),
                    "tasks/query");
    r.per_layer.add("cluster.fallback_tasks", fallback, "count");
  }
  r.per_layer.add("writer.ops_applied", static_cast<double>(us.applied), "count");
  r.per_layer.add("writer.publishes", static_cast<double>(us.publishes), "count");
  r.per_layer.add("writer.relayouts", static_cast<double>(us.relayouts), "count");
  r.per_layer.add("writer.publish_modeled_ms", 1e3 * us.publish_seconds, "ms");
  r.per_layer.add("writer.relayout_modeled_ms", 1e3 * us.relayout_seconds, "ms");

  // Recall against the brute-force oracle at each sampled request's version;
  // no returned id may be dead at that version.
  WallTimer gt_timer;
  std::vector<std::size_t> ops_at(checked.publishes.size() + 1, 0);
  for (const auto& [version, ops] : checked.publishes) {
    if (version < ops_at.size()) ops_at[version] = ops;
  }
  std::vector<std::size_t> sample(matched.size());
  std::iota(sample.begin(), sample.end(), std::size_t{0});
  std::mt19937_64 rng(derive(opt.seed, 6));
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min(sample.size(), c.size("oracle_sample")));
  std::sort(sample.begin(), sample.end(), [&](std::size_t a, std::size_t b) {
    return matched[a].second->version < matched[b].second->version;
  });
  FloatMatrix base_f(corpus.data.base.count(), corpus.data.base.dim());
  for (std::size_t i = 0; i < base_f.count(); ++i) {
    const auto src = corpus.data.base.row(i);
    std::copy(src.begin(), src.end(), base_f.row(i).begin());
  }
  drim::serve::UpdateOracle oracle(base_f);
  std::size_t applied = 0;
  std::vector<double> recalls(sample.size(), 0.0);
  std::vector<std::uint8_t> stale(sample.size(), 0);
  for (std::size_t lo = 0; lo < sample.size();) {
    const std::uint64_t v = matched[sample[lo]].second->version;
    std::size_t hi = lo;
    while (hi < sample.size() && matched[sample[hi]].second->version == v) ++hi;
    const std::size_t target = v < ops_at.size() ? ops_at[v] : updates.ops.size();
    for (; applied < target; ++applied) oracle.apply(updates.ops[applied], updates.insert_vectors);
    drim::parallel_for(lo, hi, [&](std::size_t i) {
      const auto& [rec, hr] = matched[sample[i]];
      recalls[i] = drim::recall_at_k(hr->results, oracle.topk(pool.row(rec->request.query), k), k);
      for (const Neighbor& n : hr->results) stale[i] |= oracle.alive(n.id) ? 0 : 1;
    });
    lo = hi;
  }
  r.per_layer.add("data.ground_truth_s", gt_timer.seconds(), "s");
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (stale[i] == 0) continue;
    ++r.failed;
    if (r.errors.size() < 8) {
      r.errors.push_back("request " + std::to_string(matched[sample[i]].first->request.id) +
                         " returned an id not live at its index version");
    }
  }
  check_recall(mean(recalls), c.num("min_recall_updates"), r);

  // Requests served before the first publish must match an offline search()
  // of the unmodified index on a single node.
  {
    Matched v0;
    std::vector<Request> v0_requests;
    for (const auto& pair : matched) {
      if (pair.second->version != 0) continue;
      v0.push_back(pair);
      v0_requests.push_back(pair.first->request);
    }
    const auto v0_rows = distinct_rows(v0_requests);
    const auto single = drim::make_backend(
        BackendKind::kDrim, *index, learn,
        engine_options(c, PimPlatformKind::kAnalytic, c.size("paper_dpus")));
    check_answers(v0, v0_rows, single->search(gather_rows(pool, v0_rows), k, nprobe),
                  pool.count(), r);
    std::printf("checked %zu version-0 requests against offline search, %zu sampled "
                "requests against the update oracle\n",
                v0.size(), sample.size());
  }
  first_backend = Sharded{};

  // Measured replays: unwrapped clusters, rebuilt (untimed) before each, for
  // at least --seconds of replay.
  HostRate host;
  while (host.more(opt.seconds, c.size("min_replays"))) {
    Sharded fresh = make_sharded(c, *index, learn, false, nullptr);
    const Outcome o = replay(*fresh.top, nullptr);
    host.add(o.res.report.served, o.wall);
    if (!same_records(o.res.records, checked.res.records)) {
      r.errors.push_back("modeled outcome of a replay differs from the checked replay");
      break;
    }
  }
  host.report("replays", trace.size());

  add_serve_e2e(checked, mean(recalls), r.end_to_end);
  r.end_to_end.add("host_qps", host.qps(), "req/s");

  if (opt.trace) {
    Sharded traced_backend = make_sharded(c, *index, learn, true, &r.spans);
    const auto root = r.spans.open("serve.run", 0);
    const Outcome traced = replay(*traced_backend.top, nullptr);
    r.spans.close(root);
    if (!same_records(traced.res.records, checked.res.records)) {
      r.errors.push_back("traced replay differs from the untraced replays");
    }
    r.per_layer.add("serve.self_wall_s", self_time(r.spans, 0), "s");
    r.per_layer.add("cluster.router_self_wall_s", self_time(r.spans, 1), "s");
    add_backend_wall_metrics(r.spans, r.per_layer);
    r.per_layer.add(
        "trace.overhead",
        host.overhead(static_cast<double>(traced.res.report.served) / traced.wall), "ratio");
  }
  r.end_to_end.add("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

// ============================================================================
// Wrapper equivalence on a small configuration.
// ============================================================================
std::vector<std::string> wrapper_selfcheck(const Constants& c, std::uint64_t seed) {
  std::vector<std::string> errors;
  drim::SyntheticSpec spec;
  spec.num_base = 8000;
  spec.num_queries = 96;
  spec.num_learn = 2000;
  spec.num_components = 16;
  spec.seed = derive(seed, 7);
  const auto data = drim::make_sift_like(spec);
  drim::IvfPqParams p;
  p.nlist = 32;
  p.pq.m = 16;
  p.pq.cb_entries = 32;
  p.pq.train_iters = 5;
  p.coarse_iters = 5;
  IvfPqIndex index;
  index.train(data.learn, p);
  index.add(data.base);
  Constants small = c;
  small.set("paper_dpus", "8");
  const auto stream = zipf_trace(c, data.queries.count(), 4000.0, 96, derive(seed, 8));
  const auto params = serve_params(c);
  const std::size_t step = c.size("max_batch") / 4;
  const std::size_t flush_every = c.size("batch_flush_every");

  SpanLog log;
  struct Pair {
    std::string name;
    std::unique_ptr<AnnBackend> plain;
    std::unique_ptr<AnnBackend> wrapped;
  };
  std::vector<Pair> pairs;
  for (const auto kind : {PimPlatformKind::kSim, PimPlatformKind::kAnalytic}) {
    const auto opts = engine_options(c, kind, 8);
    pairs.push_back({kind == PimPlatformKind::kSim ? "sim" : "analytic",
                     drim::make_backend(BackendKind::kDrim, index, data.learn, opts),
                     std::make_unique<TracedBackend>(
                         drim::make_backend(BackendKind::kDrim, index, data.learn, opts),
                         &log, 1)});
  }
  {
    Sharded plain = make_sharded(small, index, data.learn, false, nullptr);
    Sharded wrapped = make_sharded(small, index, data.learn, true, &log);
    pairs.push_back({"2 shards", std::move(plain.top), std::move(wrapped.top)});
  }
  auto same_stats = [](const drim::BackendStats& a, const drim::BackendStats& b) {
    return a.total_seconds == b.total_seconds && a.queries == b.queries &&
           a.batches == b.batches && a.tasks == b.tasks &&
           a.batch_seconds == b.batch_seconds && a.dc_bytes_saved == b.dc_bytes_saved;
  };
  for (Pair& pr : pairs) {
    AnnBackend& plain = *pr.plain;
    const StreamPass a = drive_stream(plain, data.queries, stream, step, flush_every);
    const drim::BackendStats sa = plain.stats();
    const StreamPass b = drive_stream(*pr.wrapped, data.queries, stream, step, flush_every);
    const drim::BackendStats sb = pr.wrapped->stats();
    if (!same_pass(a, b) || !same_stats(sa, sb)) {
      errors.push_back(pr.name + ": wrapped stream differs from unwrapped");
    }
    ServingRuntime ra(plain, data.queries, params);
    ServingRuntime rb(*pr.wrapped, data.queries, params);
    const ServeResult x = ra.run(stream);
    const ServeResult y = rb.run(stream);
    if (!same_records(x.records, y.records) || !same_stats(x.engine_stats, y.engine_stats)) {
      errors.push_back(pr.name + ": wrapped serving replay differs from unwrapped");
    }
  }
  return errors;
}

}  // namespace perfbench

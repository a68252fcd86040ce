#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/flat_search.hpp"
#include "data/recall.hpp"
#include "serve/workload.hpp"

namespace perfbench {

using drim::Neighbor;
using drim::serve::Request;
using drim::serve::RequestRecord;

const std::string& Constants::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing constant --" + key);
  }
  return it->second;
}

double Constants::num(const std::string& key) const {
  const std::string& v = get(key);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw std::invalid_argument("constant --" + key + " is not a number: " + v);
  }
  return x;
}

std::size_t Constants::size(const std::string& key) const {
  const double x = num(key);
  if (x < 0 || x != static_cast<double>(static_cast<std::size_t>(x))) {
    throw std::invalid_argument("constant --" + key + " must be a whole number");
  }
  return static_cast<std::size_t>(x);
}

std::vector<double> Constants::list(const std::string& key) const {
  std::vector<double> out;
  std::stringstream ss(get(key));
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  if (out.empty()) throw std::invalid_argument("constant --" + key + " is empty");
  return out;
}

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  items_.push_back({name, value, unit});
}

Corpus make_corpus(const Constants& c, std::uint64_t seed) {
  drim::SyntheticSpec spec;
  spec.num_base = c.size("num_base");
  spec.num_queries = c.size("pool");
  spec.num_learn = c.size("num_learn");
  spec.num_components = c.size("components");
  spec.dim = c.size("dim");
  spec.noise_spread = static_cast<float>(c.num("noise_spread"));
  spec.intrinsic_dim = c.size("intrinsic_dim");
  spec.seed = seed;
  Corpus corpus;
  drim::WallTimer t;
  corpus.data = drim::make_sift_like(spec);
  corpus.gen_seconds = t.seconds();
  return corpus;
}

drim::FloatMatrix gather_rows(const drim::FloatMatrix& pool,
                              const std::vector<std::uint32_t>& rows) {
  drim::FloatMatrix out(rows.size(), pool.dim());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto src = pool.row(rows[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

std::vector<std::vector<Neighbor>> exact_ground_truth(
    const Corpus& corpus, const std::vector<std::uint32_t>& rows, std::size_t k) {
  const auto found =
      drim::flat_search_all(corpus.data.base, gather_rows(corpus.data.queries, rows), k);
  std::vector<std::vector<Neighbor>> out(corpus.data.queries.count());
  for (std::size_t i = 0; i < rows.size(); ++i) out[rows[i]] = found[i];
  return out;
}

std::vector<std::uint32_t> distinct_rows(const std::vector<Request>& trace) {
  std::vector<std::uint32_t> rows;
  rows.reserve(trace.size());
  for (const Request& r : trace) rows.push_back(r.query);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

BuiltIndex build_index(const Constants& c, const Corpus& corpus) {
  drim::IvfPqParams p;
  p.nlist = c.size("nlist");
  p.pq.m = c.size("m");
  p.pq.cb_entries = c.size("cb");
  p.pq.train_iters = c.size("train_iters");
  p.coarse_iters = c.size("train_iters");
  BuiltIndex out;
  out.index = std::make_unique<drim::IvfPqIndex>();
  drim::WallTimer t;
  out.index->train(corpus.data.learn, p);
  out.train_s = t.seconds();
  t.reset();
  out.index->add(corpus.data.base);
  out.add_s = t.seconds();
  return out;
}

drim::DrimEngineOptions engine_options(const Constants& c, drim::PimPlatformKind platform,
                                       std::size_t num_dpus) {
  drim::DrimEngineOptions o;
  o.platform = platform;
  o.pim.num_dpus = num_dpus;
  o.batch_size = c.size("max_batch");
  return o;
}

drim::serve::ServeParams serve_params(const Constants& c) {
  drim::serve::ServeParams p;
  p.batcher.max_batch = c.size("max_batch");
  p.batcher.max_wait_s = 1e-3 * c.num("max_wait_ms");
  p.admission.slo_s = 1e-3 * c.num("slo_ms");
  return p;
}

std::vector<Request> zipf_trace(const Constants& c, std::size_t pool, double qps,
                                std::size_t n, std::uint64_t seed) {
  drim::serve::WorkloadParams w;
  w.offered_qps = qps;
  w.num_requests = n;
  w.query_skew = c.num("skew");
  w.k_choices = {static_cast<std::uint32_t>(c.size("k"))};
  w.nprobe_choices = {static_cast<std::uint32_t>(c.size("nprobe"))};
  w.seed = seed;
  std::vector<Request> trace = drim::serve::generate_workload(pool, w);
  const std::size_t segment = c.size("hot_set_requests");
  std::vector<std::uint32_t> rows(pool);
  std::mt19937_64 rng(seed ^ 0x5DEECE66DULL);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i % segment == 0) {
      std::iota(rows.begin(), rows.end(), 0u);
      std::shuffle(rows.begin(), rows.end(), rng);
    }
    trace[i].query = rows[trace[i].query];
  }
  return trace;
}

double pct(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : drim::percentile(std::move(v), p);
}

double median(std::vector<double> v) { return pct(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

namespace {

double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double rss_mb() { return status_mb("VmRSS"); }
double peak_rss_mb() { return status_mb("VmHWM"); }

std::int64_t pool_row(const drim::FloatMatrix& pool, const float* query) {
  const float* base = pool.data();
  if (query < base || query >= base + pool.count() * pool.dim()) return -1;
  const auto offset = static_cast<std::size_t>(query - base);
  if (offset % pool.dim() != 0) return -1;
  return static_cast<std::int64_t>(offset / pool.dim());
}

bool same_neighbours(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].dist != b[i].dist) return false;
  }
  return true;
}

bool same_records(const std::vector<RequestRecord>& a, const std::vector<RequestRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RequestRecord& x = a[i];
    const RequestRecord& y = b[i];
    if (x.shed != y.shed || x.results != y.results || x.done_s != y.done_s ||
        x.latency_s != y.latency_s || x.queue_wait_s != y.queue_wait_s ||
        x.pim_s != y.pim_s || x.host_cl_s != y.host_cl_s) {
      return false;
    }
  }
  return true;
}

double self_time(const SpanLog& log, int level) {
  const auto& spans = log.spans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].level != level) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [start, end] : kids) {
      if (start > hi) {
        if (hi > lo) covered += hi - lo;
        lo = start;
        hi = end;
      } else {
        hi = std::max(hi, end);
      }
    }
    if (hi > lo) covered += hi - lo;
    total += (spans[i].end_s - spans[i].start_s) - covered;
  }
  return total;
}

Observed observe(drim::serve::ServeResult res, const TracedBackend& wrapped,
                 const std::vector<const drim::DrimBackend*>& engines) {
  Observed o;
  o.res = std::move(res);
  o.steps = wrapped.steps();
  o.handles = wrapped.handles();
  o.publishes = wrapped.publishes();
  o.estimate = wrapped.requested_estimate();
  for (const drim::DrimBackend* e : engines) o.engines.push_back(e->engine_stats());
  o.health = wrapped.shard_health();
  return o;
}

void add_serve_layer_metrics(const Constants& c, const Observed& o, Metrics& out) {
  const double slo_s = 1e-3 * c.num("slo_ms");
  const std::size_t max_batch = c.size("max_batch");
  std::vector<double> spanned, deferred_ms, queue_ms;
  std::size_t fresh = 0, empty = 0, shed = 0, late = 0, served = 0;
  const auto& steps = o.steps;
  const auto& handles = o.handles;
  // The batcher is FIFO and admission only drops, so the i-th enqueued
  // handle is the i-th admitted request in trace order.
  std::vector<const RequestRecord*> admitted;
  for (const RequestRecord& r : o.res.records) {
    if (!r.shed) admitted.push_back(&r);
  }
  // A step's completion on the runtime clock. When the step finished a
  // request, that request's completion stamp is exact (the earliest one,
  // when an install flush stamped some later). Otherwise it is rebuilt from
  // the step's launch (arrival + queue wait of the requests it consumed)
  // plus its modeled critical path, or the backend timeline's completion
  // when that is later (pipelined backends anchor it to the launch).
  const std::size_t n = std::min(handles.size(), admitted.size());
  std::vector<double> step_done(steps.size(), -1.0);
  for (std::size_t h = 0; h < n; ++h) {
    const auto f = handles[h].finish_step;
    if (f < 0) continue;
    double& done = step_done[static_cast<std::size_t>(f)];
    if (done < 0.0 || admitted[h]->done_s < done) done = admitted[h]->done_s;
  }
  for (std::size_t h = 0; h < n; ++h) {
    const auto c = handles[h].consume_step;
    if (c < 0 || step_done[static_cast<std::size_t>(c)] >= 0.0) continue;
    const auto& s = steps[static_cast<std::size_t>(c)];
    const double launch = admitted[h]->request.arrival_s + admitted[h]->queue_wait_s;
    step_done[static_cast<std::size_t>(c)] = std::max(
        s.complete_seconds,
        launch + s.pre_seconds + std::max(s.host_seconds, s.exec_seconds));
  }
  for (std::size_t h = 0; h < n; ++h) {
    const HandleRecord& rec = handles[h];
    if (rec.consume_step < 0 || rec.finish_step < 0) continue;
    spanned.push_back(static_cast<double>(rec.finish_step - rec.consume_step + 1));
    const double d =
        admitted[h]->done_s - step_done[static_cast<std::size_t>(rec.consume_step)];
    deferred_ms.push_back(1e3 * std::max(0.0, d));
  }
  for (const auto& s : steps) {
    fresh += s.fresh_queries;
    empty += s.fresh_queries == 0 ? 1 : 0;
  }
  for (const RequestRecord& r : o.res.records) {
    if (r.shed) {
      ++shed;
      continue;
    }
    ++served;
    queue_ms.push_back(1e3 * r.queue_wait_s);
    if (r.latency_s > slo_s) ++late;
  }
  const double n_steps = static_cast<double>(o.steps.size());
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.add("serve.steps", n_steps, "count");
  out.add("serve.fresh_per_step", ratio(static_cast<double>(fresh), n_steps), "req/step");
  out.add("serve.empty_step_ratio", ratio(static_cast<double>(empty), n_steps), "ratio");
  out.add("serve.steps_spanned_mean", mean(spanned), "steps");
  out.add("serve.steps_spanned_p99", pct(spanned, 99.0), "steps");
  out.add("serve.deferred_p50_ms", pct(deferred_ms, 50.0), "ms");
  out.add("serve.deferred_p99_ms", pct(deferred_ms, 99.0), "ms");
  out.add("serve.queue_wait_p50_ms", pct(queue_ms, 50.0), "ms");
  out.add("serve.queue_wait_p99_ms", pct(queue_ms, 99.0), "ms");
  out.add("serve.shed", static_cast<double>(shed), "count");
  out.add("serve.late", static_cast<double>(late), "count");
  out.add("serve.on_time_ratio",
          ratio(static_cast<double>(served - late), static_cast<double>(served)), "ratio");
  out.add("serve.goodput_qps", o.res.report.goodput_qps, "req/s");
  out.add("serve.slo_miss_rate",
          ratio(static_cast<double>(shed + late), static_cast<double>(o.res.records.size())),
          "ratio");
  add_step_metrics(o.steps, o.estimate, max_batch, out);
}

void add_step_metrics(const std::vector<drim::BackendStepStats>& steps, double estimate,
                      std::size_t max_batch, Metrics& out) {
  std::size_t fresh = 0, tasks = 0, deferred = 0;
  double exec = 0.0, total = 0.0;
  std::vector<double> step_ms, full;
  for (const auto& s : steps) {
    fresh += s.fresh_queries;
    tasks += s.tasks;
    deferred += s.deferred;
    exec += s.exec_seconds;
    total += s.step_seconds;
    step_ms.push_back(1e3 * s.step_seconds);
    if (s.fresh_queries == max_batch) full.push_back(s.step_seconds);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.add("drim.step_p50_ms", pct(step_ms, 50.0), "ms");
  out.add("drim.step_p99_ms", pct(step_ms, 99.0), "ms");
  out.add("drim.exec_share", ratio(exec, total), "ratio");
  out.add("drim.tasks_per_query", ratio(double(tasks), double(fresh)), "tasks/query");
  out.add("drim.deferred_ratio", ratio(double(deferred), double(tasks)), "ratio");
  out.add("drim.eq15_ratio", ratio(median(full), estimate), "ratio");
}

void add_pim_metrics(const std::vector<drim::DrimSearchStats>& engines,
                     std::size_t requests, Metrics& out) {
  std::array<double, drim::kNumPhases> phase{};
  double busy = 0.0, tin = 0.0, tout = 0.0, energy = 0.0, dma = 0.0;
  std::uint64_t read = 0, instr = 0, mul = 0, saved = 0;
  std::vector<double> per_dpu;  // every engine's DPUs side by side
  for (const drim::DrimSearchStats& s : engines) {
    for (std::size_t p = 0; p < drim::kNumPhases; ++p) phase[p] += s.phase_dpu_seconds[p];
    busy += s.dpu_busy_seconds;
    tin += s.transfer_in_seconds;
    tout += s.transfer_out_seconds;
    energy += s.energy_joules;
    saved += s.dc_bytes_saved;
    per_dpu.insert(per_dpu.end(), s.per_dpu_seconds.begin(), s.per_dpu_seconds.end());
    for (const auto& pc : s.counters.phases) {
      read += pc.mram_bytes_read;
      mul += pc.mul_count;
    }
    dma += s.counters.total_dma_cycles();
    instr += s.counters.total_instr_cycles();
  }
  const double q = requests > 0 ? static_cast<double>(requests) : 1.0;
  for (std::size_t p = 0; p < drim::kNumPhases; ++p) {
    out.add("pim.phase_dpu_s." +
                std::string(drim::phase_name(static_cast<drim::Phase>(p))),
            phase[p], "s");
  }
  out.add("pim.dpu_busy_s", busy, "s");
  out.add("pim.transfer_in_s", tin, "s");
  out.add("pim.transfer_out_s", tout, "s");
  const double max_dpu =
      per_dpu.empty() ? 0.0 : *std::max_element(per_dpu.begin(), per_dpu.end());
  out.add("pim.dpu_balance", max_dpu > 0.0 ? mean(per_dpu) / max_dpu : 0.0, "ratio");
  out.add("pim.mram_read_bytes_per_query", static_cast<double>(read) / q, "B/query");
  out.add("pim.dma_cycles_per_query", dma / q, "cycles/query");
  out.add("pim.instr_cycles_per_query", static_cast<double>(instr) / q, "cycles/query");
  out.add("pim.mul_count", static_cast<double>(mul), "count");
  out.add("pim.dc_bytes_saved", static_cast<double>(saved), "B");
  out.add("pim.energy_j_per_query", energy / q, "J/query");
}

namespace {

std::vector<double> durations(const SpanLog& log, int level, const char* name) {
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (s.level == level && (name == nullptr || std::string(s.name) == name)) {
      out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

double total_time(const SpanLog& log, int level, const char* name) {
  const auto d = durations(log, level, name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

std::size_t count_spans(const SpanLog& log, int level, const char* name) {
  return durations(log, level, name).size();
}

}  // namespace

void add_backend_wall_metrics(const SpanLog& log, Metrics& out) {
  std::vector<double> step_ms = durations(log, 1, "step");
  for (double& d : step_ms) d *= 1e3;
  out.add("backend.enqueue_wall_s",
          total_time(log, 1, "enqueue") + total_time(log, 1, "enqueue_routed"), "s");
  out.add("backend.step_wall_s", total_time(log, 1, "step"), "s");
  out.add("backend.step_wall_p99_ms", pct(step_ms, 99.0), "ms");
  out.add("backend.take_wall_s", total_time(log, 1, "take_results"), "s");
  out.add("backend.finished_calls", static_cast<double>(count_spans(log, 1, "finished")),
          "count");
  out.add("backend.stage_snapshot_wall_s", total_time(log, 1, "stage_snapshot"), "s");
  out.add("backend.stage_relayout_wall_s", total_time(log, 1, "stage_relayout"), "s");
}

}  // namespace perfbench

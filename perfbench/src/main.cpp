// End-to-end benchmark: one workload run per invocation.
//
//   perfbench --workload serve_zipf|batch_sim|serve_sharded_updates
//             --seed N --seconds S --trace 0|1 [--span-out FILE]
//             [--git-rev REV] [--git-dirty 0|1] [--why TEXT]
//             --set key=value ...   (the fixed constants, all required)
//
// Prints human-readable progress, then one line `RESULT {json}` holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), the
// attempted/failed request counts and any correctness violations. Exits 1
// when a correctness check failed, 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void print_result(const RunResult& r, bool trace) {
  const Metrics& m = trace ? r.per_layer : r.end_to_end;
  std::printf("RESULT {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              r.errors.empty() ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < m.all().size(); ++i) {
    const Metric& x = m.all()[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("}, \"errors\": [");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", json_escape(r.errors[i]).c_str());
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, span_out, git_rev = "unknown", git_dirty = "unknown", why;
  RunOptions opt;
  Constants c;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      const std::string val = argv[++i];
      if (arg == "--workload") workload = val;
      else if (arg == "--seed") opt.seed = std::stoull(val);
      else if (arg == "--seconds") opt.seconds = std::stod(val);
      else if (arg == "--trace") opt.trace = val == "1";
      else if (arg == "--span-out") span_out = val;
      else if (arg == "--git-rev") git_rev = val;
      else if (arg == "--git-dirty") git_dirty = val;
      else if (arg == "--why") why = val;
      else if (arg == "--set" && val.find('=') != std::string::npos) {
        c.set(val.substr(0, val.find('=')), val.substr(val.find('=') + 1));
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (opt.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
    if (workload != "serve_zipf" && workload != "batch_sim" &&
        workload != "serve_sharded_updates") {
      throw std::invalid_argument("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  try {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const auto cap = std::min<std::size_t>(c.size("max_threads"), hw);
    const int threads = drim::set_num_threads(static_cast<int>(cap));
    std::printf("workload %s, seed %llu, %.3g s, trace %d, host threads %d (nproc %u)\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, threads, hw);
    std::printf("git revision %s, dirty %s\n", git_rev.c_str(), git_dirty.c_str());
    std::printf("why: %s\n", why.c_str());
    std::fflush(stdout);

    std::vector<std::string> selfcheck;
    if (opt.trace) {
      selfcheck = wrapper_selfcheck(c, opt.seed);
      std::printf("wrapper equivalence self-check (sim, analytic, 2 shards): %s\n",
                  selfcheck.empty() ? "identical" : "DIFFERS");
    }

    RunResult r;
    if (workload == "serve_zipf") {
      std::printf("open loop: each request is timed from its scheduled arrival on the "
                  "virtual clock, so generator lateness is 0 by construction\n");
      r = run_serve_zipf(c, opt);
    } else if (workload == "batch_sim") {
      std::printf("closed loop: %zu-query steps, flush every %zu steps and at the end\n",
                  c.size("max_batch"), c.size("batch_flush_every"));
      r = run_batch_sim(c, opt);
    } else {
      std::printf("open loop: each request is timed from its scheduled arrival on the "
                  "virtual clock, so generator lateness is 0 by construction\n");
      r = run_serve_sharded_updates(c, opt);
    }
    r.errors.insert(r.errors.begin(), selfcheck.begin(), selfcheck.end());

    if (opt.trace && !span_out.empty()) {
      std::ofstream out(span_out);
      r.spans.write_json(out);
      std::printf("wrote %zu spans to %s\n", r.spans.spans().size(), span_out.c_str());
    }
    for (const std::string& e : r.errors) std::printf("CORRECTNESS: %s\n", e.c_str());
    print_result(r, opt.trace);
    return r.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

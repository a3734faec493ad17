// delta_sweep — parallel design-space sweep driver.
//
// Fans the Table 3 preset x workload x seed cross product out over a
// thread pool (each cell is an independent Mpsoc simulation) and writes
// a structured JSON report. The JSON is byte-identical for any
// --threads value: per-run seeds are derived from the cell coordinates,
// never from scheduling order.
//
//   delta_sweep                         # 7 presets x mixed x 4 seeds
//   delta_sweep --threads 4 --seeds 8
//   delta_sweep --presets 4,5 --workloads mixed,random --out sweep.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "exp/json.h"
#include "exp/runner.h"
#include "exp/trace_export.h"
#include "exp/workloads.h"
#include "obs/metrics.h"

using namespace delta;

namespace {

std::string workloads_footer() {
  std::string f = "workloads:";
  for (const std::string& n : exp::workload_names()) f += " " + n;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args("delta_sweep", "[options]");
  args.opt("threads", "N", "worker threads (default: hardware concurrency)",
           "0")
      .opt("seeds", "N", "seeds 1..N per cell (default 4)", "4")
      .opt("presets", "LIST",
           "comma list of Table 3 rows, e.g. 1,4,5, plus\nthe protocol-zoo "
           "names bankers, wfg-recovery\n(default: all seven rows)")
      .opt("workloads", "LIST", "comma list of workload names (default: mixed)",
           "mixed")
      .opt("limit", "CYCLES", "per-run simulation cap (default 50000000)")
      .opt("base-seed", "N", "sweep-level seed mixed into every run")
      .opt("out", "FILE",
           "JSON report path (default sweep_report.json,\n'-' for stdout)",
           "sweep_report.json")
      .opt("trace", "FILE",
           "write a Chrome trace-event JSON of every run\n(load in Perfetto "
           "or chrome://tracing)")
      .opt("trace-capacity", "N",
           "per-run trace ring size (default 65536;\noldest events drop "
           "first)",
           "65536")
      .flag("engine-stats",
            "collect engine introspection (event-queue and\nkernel-service "
            "counters) into per-run \"engine\"\nblocks plus a campaign "
            "roll-up; deterministic,\nreport bytes unchanged elsewhere")
      .flag("engine-host-times",
            "with --engine-stats: also serialize per-run host\nCPU time and "
            "the p50/p99/slowest roll-up\n(nondeterministic; never for "
            "goldens)")
      .flag("metrics", "print the summed metrics registry after the run")
      .flag("quiet", "no per-run progress lines")
      .footer(workloads_footer());
  args.parse(argc, argv);

  const std::size_t threads = args.size("threads");
  const int seeds = args.integer("seeds");
  const std::string out_path = args.str("out");
  const std::string trace_path = args.str("trace");
  const std::size_t trace_capacity = args.size("trace-capacity");
  const bool metrics = args.on("metrics");
  const bool quiet = args.on("quiet");
  std::FILE* const log = args.log_stream({"out", "trace"});
  exp::SweepSpec spec;
  if (args.on("limit")) spec.run_limit = args.u64("limit");
  if (args.on("base-seed")) spec.base_seed = args.u64("base-seed");
  spec.engine_stats = args.on("engine-stats");
  spec.engine_host_times = args.on("engine-host-times");
  if (spec.engine_host_times && !spec.engine_stats) {
    std::fprintf(stderr, "--engine-host-times requires --engine-stats\n");
    return 2;
  }
  if (seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }

  try {
    if (!args.on("presets")) {
      spec.configs = exp::all_preset_points();
    } else {
      for (const std::string& p : args.list("presets"))
        spec.configs.push_back(exp::named_config_point(p));
    }
    for (const std::string& wname : args.list("workloads"))
      spec.workloads.push_back(exp::find_workload(wname));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // The common sweep workloads are deadlock-free by construction; don't
  // freeze detection presets on a false positive-free run.
  for (exp::ConfigPoint& cp : spec.configs)
    cp.config.stop_on_deadlock = false;
  spec.seeds.clear();
  for (int s = 1; s <= seeds; ++s)
    spec.seeds.push_back(static_cast<std::uint64_t>(s));
  if (!trace_path.empty()) spec.trace_capacity = trace_capacity;

  exp::RunnerOptions opt;
  opt.threads = threads;
  if (!quiet) {
    opt.on_result = [log](const exp::RunResult& r) {
      if (r.ok) {
        std::fprintf(log,
                     "  done %-7s %-12s seed %-3llu  exec %llu cycles%s\n",
                     r.config.c_str(), r.workload.c_str(),
                     static_cast<unsigned long long>(r.seed),
                     static_cast<unsigned long long>(r.app_run_time),
                     r.all_finished ? "" : "  [unfinished]");
      } else {
        std::fprintf(log, "  FAIL %-7s %-12s seed %-3llu  %s\n",
                     r.config.c_str(), r.workload.c_str(),
                     static_cast<unsigned long long>(r.seed),
                     r.error.c_str());
      }
    };
  }

  const std::size_t cells =
      spec.configs.size() * spec.workloads.size() * spec.seeds.size();
  std::fprintf(log,
               "delta_sweep: %zu configs x %zu workloads x %zu seeds = %zu "
               "runs\n",
               spec.configs.size(), spec.workloads.size(), spec.seeds.size(),
               cells);

  const exp::SweepReport report = exp::run_sweep(spec, opt);

  std::fprintf(log,
               "sweep finished: %zu runs (%zu failed) on %zu threads in "
               "%.2f s\n",
               report.runs.size(), report.failed(), report.threads_used,
               report.wall_seconds);

  const std::string json = exp::report_to_json(spec, report);
  if (!cli::write_output(out_path, json)) return 1;
  if (out_path != "-")
    std::fprintf(log, "report written to %s (%zu bytes)\n",
                 out_path.c_str(), json.size());

  if (!trace_path.empty()) {
    const std::string trace = exp::report_trace_to_chrome_json(report);
    if (!cli::write_output(trace_path, trace)) return 1;
    if (trace_path != "-")
      std::fprintf(log,
                   "trace written to %s (%zu bytes; open in "
                   "ui.perfetto.dev)\n",
                   trace_path.c_str(), trace.size());
  }

  if (metrics) {
    // Sum each counter over all runs. The registry keys are sorted, so
    // this table is deterministic for any --threads value too.
    std::map<std::string_view, std::uint64_t> totals;
    for (const exp::RunResult& r : report.runs)
      for (const auto& [name, value] : r.metrics.counters)
        totals[name] += value;
    std::fprintf(log, "metrics (counters summed over %zu runs):\n",
                 report.runs.size() - report.failed());
    for (const auto& [name, value] : totals)
      std::fprintf(log, "  %-24.*s %llu\n", static_cast<int>(name.size()),
                   name.data(), static_cast<unsigned long long>(value));
  }
  return report.failed() == 0 ? 0 : 1;
}

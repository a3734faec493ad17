// delta_profile — cycle-attribution profiler CLI.
//
// Runs Table 3 presets (or a fuzz-scenario JSON repro) with the
// structured trace, the windowed sampler and the critical-path analyzer
// attached, then writes:
//   * a deterministic profile JSON: per-task cycle buckets
//     (run/spin/blocked/overhead summing exactly to total), the longest
//     blocking chain, and the per-object contention ranking;
//   * optionally a Chrome trace-event document (counter tracks, named
//     PE threads, wait-for flow arrows) for ui.perfetto.dev.
//
//   delta_profile                               # RTOS4 x mixed, seed 1
//   delta_profile --preset 1,4 --chrome t.json
//   delta_profile --scenario repro.json --out -
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "exp/json.h"
#include "exp/runner.h"
#include "exp/trace_export.h"
#include "exp/workloads.h"
#include "fuzz/scenario_json.h"

using namespace delta;

namespace {

std::string workloads_footer() {
  std::string f = "workloads:";
  for (const std::string& n : exp::workload_names()) f += " " + n;
  return f;
}

/// Wrap a fuzz scenario as a sweep workload, the same way the
/// differential runner instantiates one: anonymous zero-cost resources,
/// geometry forced to the scenario's.
exp::Workload scenario_workload(const fuzz::Scenario& s) {
  exp::Workload w;
  w.name = s.name.empty() ? "scenario" : "scenario:" + s.name;
  w.tune = [s](soc::MpsocConfig& mc) {
    mc.pe_count = s.pe_count;
    mc.max_tasks = std::max(mc.max_tasks, s.tasks.size());
    mc.deadlock_unit_resources =
        std::max(mc.deadlock_unit_resources, s.resource_count);
    mc.resources.clear();
    for (std::size_t r = 0; r < s.resource_count; ++r)
      mc.resources.push_back({"q" + std::to_string(r + 1), 0});
  };
  w.build = [s](soc::Mpsoc& m, sim::Rng&) { s.install(m.kernel()); };
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args("delta_profile", "[options]");
  args.opt("preset", "LIST",
           "comma list of Table 3 rows (default kRtos4;\naccepts 4 / RTOS4 "
           "/ kRtos4) or the protocol-zoo\nnames bankers, wfg-recovery",
           "4")
      .alias("presets", "preset")
      .opt("scenario", "FILE",
           "profile a fuzz-scenario JSON instead of a\nworkload (geometry "
           "comes from the scenario)")
      .opt("workload", "NAME", "workload for preset runs (default mixed)",
           "mixed")
      .opt("seed", "N", "workload seed (default 1)", "1")
      .opt("limit", "CYCLES",
           "per-run cap (default 50000000, or the\nscenario's run_limit)")
      .opt("threads", "N",
           "worker threads (default 1; output is\nbyte-identical for any "
           "value)",
           "1")
      .opt("sample-period", "N",
           "windowed-sampler period (default 10000;\n0 disables counter "
           "tracks)",
           "10000")
      .opt("trace-capacity", "N",
           "structured-trace ring size (default 262144)", "262144")
      .opt("out", "FILE", "profile JSON (default profile.json, '-' for\nstdout)",
           "profile.json")
      .opt("chrome", "FILE", "Chrome trace-event JSON (Perfetto)")
      .flag("engine-stats",
            "append an \"engine\" introspection block to each\nrun "
            "(event-queue + kernel-service counters);\ndeterministic, other "
            "bytes unchanged")
      .footer(workloads_footer());
  args.parse(argc, argv);

  const std::string scenario_path = args.str("scenario");
  const std::string workload = args.str("workload");
  const std::uint64_t seed = args.u64("seed");
  const std::size_t threads = args.size("threads");
  const sim::Cycles sample_period = args.u64("sample-period");
  const std::size_t trace_capacity = args.size("trace-capacity");
  const std::string out_path = args.str("out");
  const std::string chrome_path = args.str("chrome");
  std::FILE* const log = args.log_stream({"out", "chrome"});
  exp::SweepSpec spec;
  const bool limit_set = args.on("limit");
  if (limit_set) spec.run_limit = args.u64("limit");

  try {
    for (const std::string& p : args.list("preset"))
      spec.configs.push_back(exp::named_config_point(p));
    if (scenario_path.empty()) {
      spec.workloads.push_back(exp::find_workload(workload));
      // The built-in workloads are deadlock-free by construction; don't
      // freeze detection presets on a false positive-free run.
      for (exp::ConfigPoint& cp : spec.configs)
        cp.config.stop_on_deadlock = false;
    } else {
      std::ifstream in(scenario_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", scenario_path.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const fuzz::Scenario s = fuzz::scenario_from_json(buf.str());
      const auto problems = s.validate();
      if (!problems.empty()) {
        std::fprintf(stderr, "invalid scenario: %s\n", problems[0].c_str());
        return 2;
      }
      spec.workloads.push_back(scenario_workload(s));
      if (!limit_set) spec.run_limit = s.run_limit;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  spec.seeds = {seed};
  spec.profile = true;
  spec.sample_period = sample_period;
  spec.trace_capacity = trace_capacity;
  spec.engine_stats = args.on("engine-stats");

  exp::RunnerOptions opt;
  opt.threads = threads;
  const exp::SweepReport report = exp::run_sweep(spec, opt);

  for (const exp::RunResult& r : report.runs) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL %s/%s: %s\n", r.config.c_str(),
                   r.workload.c_str(), r.error.c_str());
      continue;
    }
    std::fprintf(
        log,
        "%-7s %-16s exec %llu cycles, critical path %llu cycles "
        "(%zu links), %llu trace events (%llu dropped)\n",
        r.config.c_str(), r.workload.c_str(),
        static_cast<unsigned long long>(r.app_run_time),
        static_cast<unsigned long long>(r.profile.critical_path_cycles),
        r.profile.critical_path.size(),
        static_cast<unsigned long long>(r.profile.events_seen),
        static_cast<unsigned long long>(r.profile.events_dropped));
  }

  // Profile document: one entry per run, deterministic bytes.
  exp::JsonWriter w;
  w.begin_object();
  w.key("runs").begin_array();
  for (const exp::RunResult& r : report.runs) {
    w.begin_object();
    w.key("config").value(r.config);
    w.key("workload").value(r.workload);
    w.key("seed").value(r.seed);
    w.key("ok").value(r.ok);
    if (!r.ok) {
      w.key("error").value(r.error);
      w.end_object();
      continue;
    }
    w.key("sim_cycles").value(static_cast<std::uint64_t>(r.sim_cycles));
    w.key("app_run_time").value(static_cast<std::uint64_t>(r.app_run_time));
    w.key("deadlock_detected").value(r.deadlock_detected);
    w.key("profile");
    exp::write_profile(w, r.profile, r.timeseries);
    // The engine block rides after "profile" (never the first key), so
    // stripping it restores pre-flag bytes exactly.
    if (r.engine.enabled) {
      w.key("engine");
      exp::write_engine_report(w, r.engine, r.engine_timeseries);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string doc = w.finish();
  if (!cli::write_output(out_path, doc)) return 1;
  if (out_path != "-")
    std::fprintf(log, "profile written to %s (%zu bytes)\n",
                 out_path.c_str(), doc.size());

  if (!chrome_path.empty()) {
    const std::string trace = exp::report_trace_to_chrome_json(report);
    if (!cli::write_output(chrome_path, trace)) return 1;
    if (chrome_path != "-")
      std::fprintf(log, "chrome trace written to %s (%zu bytes)\n",
                   chrome_path.c_str(), trace.size());
  }

  return report.failed() == 0 ? 0 : 1;
}

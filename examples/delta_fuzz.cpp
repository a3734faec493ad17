// delta_fuzz — differential scenario fuzzer.
//
// Draws random well-formed scenarios (task sets with scripted
// request/release, lock and allocation behaviour) and executes each one
// across software/hardware backend pairs — PDDA vs DDU, DAA vs DAU,
// software locks vs SoCLC, software heap vs SoCDMMU, and all of
// RTOS1-RTOS7 — cross-checking behavioural invariants while ignoring
// cycle counts. Failures are shrunk to minimal scenarios and written as
// replayable JSON repros. The report bytes depend only on
// (--seed, --runs, --pairs), never on --threads.
//
//   delta_fuzz --runs 500 --seed 1                # all pairs
//   delta_fuzz --pairs daa-dau --inject-fault dau-grant --repro repro.json
//   delta_fuzz --replay repro.json --pairs daa-dau
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "fuzz/campaign.h"
#include "fuzz/scenario_json.h"

using namespace delta;

namespace {

int replay(const std::string& path, const std::vector<std::string>& pairs,
           const std::string& fault) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "delta_fuzz: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const fuzz::Scenario s = fuzz::scenario_from_json(buf.str());
  std::printf("replaying %s (%zu tasks, %zu pes, %zu resources)\n",
              s.name.empty() ? path.c_str() : s.name.c_str(), s.tasks.size(),
              s.pe_count, s.resource_count);
  bool failed = false;
  for (const fuzz::DiffResult& d : fuzz::replay_scenario(s, pairs, fault)) {
    if (!d.failed()) {
      std::printf("  %-10s OK\n", d.pair.c_str());
      continue;
    }
    failed = true;
    std::printf("  %-10s FAIL\n", d.pair.c_str());
    for (const std::string& v : d.all_violations())
      std::printf("    %s\n", v.c_str());
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args("delta_fuzz", "[options]");
  args.opt("runs", "N", "scenarios to draw (default 100)")
      .opt("seed", "N", "campaign base seed (default 1)")
      .opt("pairs", "LIST",
           "comma list of backend pairs (default: the\ndefault-campaign "
           "pairs)\nknown: pdda-ddu, daa-dau, locks, heap,\npresets, "
           "ddu-sharded, dau-sharded,\nbankers-vs-daa, wfg-recovery")
      .opt("generator", "NAME",
           "scenario generator params: default, or\nlarge (up to 64 PEs x "
           "64 resources x 64\ntasks, for the sharded pairs)")
      .opt("threads", "N",
           "worker threads (default 1; report bytes are\nidentical for any "
           "value)")
      .opt("inject-fault", "F",
           "arm a strategy fault in every run, e.g.\ndau-grant (DAU grants "
           "unsafely),\nddu-silent (DDU stops reporting deadlocks),\n"
           "bankers-unsafe-grant (skip the safety\nprobe) or wfg-miss-cycle "
           "(scans lie)")
      .opt("repro", "FILE",
           "write the first failure's shrunk scenario as\na replayable JSON "
           "repro")
      .opt("replay", "FILE",
           "skip generation; replay one repro JSON across\nthe selected "
           "pairs")
      .opt("limit", "CYCLES", "per-run simulation cap (default 50000000)")
      .opt("shrink-attempts", "N",
           "shrinker budget per failure (default 2000)")
      .opt("out", "FILE", "campaign report JSON ('-' for stdout)")
      .flag("engine-stats",
            "collect engine introspection on every primary\nexecution and "
            "append an \"engine\" roll-up to the\nreport; deterministic, "
            "other bytes unchanged");
  args.parse(argc, argv);

  fuzz::CampaignOptions opts;
  if (args.on("runs")) opts.runs = args.u64("runs");
  if (args.on("seed")) opts.seed = args.u64("seed");
  if (args.on("pairs")) opts.pairs = args.list("pairs");
  if (args.on("threads")) opts.threads = args.size("threads");
  if (args.on("inject-fault")) opts.fault = args.str("inject-fault");
  if (args.on("generator")) {
    const std::string g = args.str("generator");
    if (g == "large") opts.generator = fuzz::large_geometry_params();
    else if (g != "default") {
      std::fprintf(stderr,
                   "delta_fuzz: unknown generator '%s' (default, large)\n",
                   g.c_str());
      return 2;
    }
  }
  if (args.on("limit")) opts.generator.run_limit = args.u64("limit");
  if (args.on("shrink-attempts"))
    opts.shrink_attempts = args.size("shrink-attempts");
  opts.engine_stats = args.on("engine-stats");
  const std::string repro_path = args.str("repro");
  const std::string replay_path = args.str("replay");
  const std::string out_path = args.str("out");
  std::FILE* const log = args.log_stream({"out", "repro"});

  try {
    if (!replay_path.empty())
      return replay(replay_path, opts.pairs, opts.fault);

    const fuzz::CampaignReport report = fuzz::run_campaign(opts);
    std::fprintf(log, "delta_fuzz: %llu runs, seed %llu, %zu pair set(s)%s\n",
                 static_cast<unsigned long long>(report.runs),
                 static_cast<unsigned long long>(report.seed),
                 report.pairs.size(),
                 opts.fault.empty()
                     ? ""
                     : (" [fault: " + opts.fault + "]").c_str());
    if (opts.engine_stats)
      std::fprintf(log,
                   "delta_fuzz: engine stats over %llu executions: %llu "
                   "events dispatched, peak queue footprint %llu bytes\n",
                   static_cast<unsigned long long>(report.engine_suts),
                   static_cast<unsigned long long>(
                       report.engine.events_dispatched),
                   static_cast<unsigned long long>(
                       report.engine.queue_footprint_bytes));
    if (!out_path.empty() &&
        !cli::write_output(out_path, fuzz::campaign_report_json(report)))
      return 2;
    if (report.clean()) {
      std::fprintf(log, "delta_fuzz: no divergence found\n");
      return 0;
    }
    std::fprintf(log,
                 "delta_fuzz: %llu failing run(s), %zu recorded failure(s)\n",
                 static_cast<unsigned long long>(report.failing_runs),
                 report.failures.size());
    for (const fuzz::CampaignFailure& f : report.failures) {
      std::fprintf(log, "  run %llu pair %s: shrunk %zu -> %zu task(s)\n",
                   static_cast<unsigned long long>(f.run_index),
                   f.pair.c_str(), f.original.tasks.size(),
                   f.shrunk.tasks.size());
      for (const std::string& v : f.violations)
        std::fprintf(log, "    %s\n", v.c_str());
    }
    if (!repro_path.empty()) {
      const fuzz::Scenario& first = report.failures.front().shrunk;
      if (!cli::write_output(repro_path, fuzz::scenario_to_json(first)))
        return 2;
      if (repro_path != "-")
        std::fprintf(log, "delta_fuzz: repro written to %s\n",
                     repro_path.c_str());
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "delta_fuzz: %s\n", e.what());
    return 2;
  }
}

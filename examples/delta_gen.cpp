// delta_gen — the framework's generation flow as a command-line tool.
//
// Reads a framework configuration file (see soc/config_io.h), validates
// it, and writes the generated HDL plus a configuration report into an
// output directory — the batch equivalent of the paper's Fig. 3 GUI.
//
//   $ ./build/examples/delta_gen my_system.cfg out/
//   $ ./build/examples/delta_gen --preset 4 out/   # Table 3's RTOS4
//   $ ./build/examples/delta_gen --preset 4 --metrics out/
//
// --metrics / --trace additionally smoke-simulate the configured system
// (the "mixed" sweep workload) and report its metrics registry / write a
// Chrome trace-event JSON — a quick sanity check that the generated
// configuration actually behaves before committing to synthesis.
//
// With no arguments it prints a sample configuration file to stdout.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "exp/workloads.h"
#include "hw/synth.h"
#include "hw/verilog_gen.h"
#include "hw/verilog_lint.h"
#include "obs/chrome_trace.h"
#include "sim/random.h"
#include "soc/config_io.h"
#include "soc/mpsoc.h"

using namespace delta;

namespace {

int generate_into(const soc::DeltaConfig& cfg, const std::string& out_dir,
                  std::FILE* log) {
  const std::vector<soc::ConfigError> errors = cfg.validate();
  if (!errors.empty()) {
    std::fprintf(stderr, "invalid configuration (%zu problems):\n",
                 errors.size());
    for (const soc::ConfigError& e : errors)
      std::fprintf(stderr, "  %s\n", soc::to_string(e).c_str());
    return 1;
  }
  std::filesystem::create_directories(out_dir);

  std::fprintf(log, "%s\n", cfg.describe().c_str());
  const auto files = soc::generate_hdl(cfg);
  bool clean = true;
  for (const auto& f : files) {
    const auto path = std::filesystem::path(out_dir) / f.name;
    std::ofstream(path) << f.contents;
    const auto issues = hw::lint_verilog(
        f.contents,
        {"pe_" + cfg.cpu_type, "l2_memory", "memory_controller",
         "bus_arbiter", "interrupt_controller", "clock_driver",
         "ddu_5x5", "dau_5x5", "soclc", "socdmmu"});
    clean &= issues.empty();
    std::fprintf(log, "  wrote %-42s %5zu lines%s\n", path.c_str(),
                 hw::count_lines(f.contents),
                 issues.empty() ? "" : "  LINT ISSUES");
    for (const auto& i : issues)
      std::fprintf(log, "    line %d: %s\n", i.line, i.message.c_str());
  }

  // Area summary for the selected hardware components.
  std::ostringstream report;
  report << cfg.describe() << "\n";
  double total = 0;
  if (cfg.deadlock == soc::DeadlockComponent::kDdu)
    total += hw::ddu_area(cfg.resource_count, cfg.task_count).total();
  if (cfg.deadlock == soc::DeadlockComponent::kDau)
    total += hw::dau_area(cfg.resource_count, cfg.task_count,
                          cfg.pe_count).total();
  if (cfg.lock == soc::LockComponent::kSoclc)
    total += hw::soclc_area(cfg.soclc, cfg.pe_count).total();
  if (cfg.memory == soc::MemoryComponent::kSocdmmu)
    total += hw::socdmmu_area(cfg.socdmmu).total();
  report << "hardware RTOS components: " << total << " NAND2 ("
         << hw::area_percent_of_mpsoc(total) << "% of the MPSoC)\n";
  std::ofstream(std::filesystem::path(out_dir) / "report.txt")
      << report.str();
  std::fprintf(log, "  wrote %s/report.txt (%.0f NAND2 total)\n",
               out_dir.c_str(), total);
  return clean ? 0 : 2;
}

/// Smoke-simulate the configuration with the "mixed" sweep workload and
/// surface the observability layer: the metrics registry on `log`
/// and/or a Chrome trace-event file.
int observe(const soc::DeltaConfig& cfg, bool metrics,
            const std::string& trace_path, std::FILE* log) {
  try {
    soc::MpsocConfig mc = cfg.to_mpsoc_config();
    // The smoke workload is deadlock-free by construction; don't freeze
    // a detection preset on a false positive-free run.
    mc.stop_on_deadlock = false;
    const exp::Workload w = exp::find_workload("mixed");
    if (w.tune) w.tune(mc);
    if (!trace_path.empty()) mc.trace_capacity = 65536;

    soc::Mpsoc soc(mc);
    sim::Rng rng(1);
    w.build(soc, rng);
    soc.run(50'000'000);

    if (metrics) {
      const obs::MetricsSnapshot snap = soc.observer().metrics.snapshot();
      std::fprintf(log, "metrics (smoke run, workload mixed):\n");
      for (const auto& [name, value] : snap.counters)
        std::fprintf(log, "  %-24.*s %llu\n", static_cast<int>(name.size()),
                     name.data(), static_cast<unsigned long long>(value));
      for (const auto& [name, h] : snap.histograms)
        std::fprintf(log, "  %-24.*s n=%llu mean=%.1f p95=%.1f\n",
                     static_cast<int>(name.size()), name.data(),
                     static_cast<unsigned long long>(h.count), h.mean, h.p95);
    }
    if (!trace_path.empty()) {
      obs::ProcessTrace pt;
      pt.name = cfg.describe();
      pt.events = soc.observer().trace.events();
      pt.dropped = soc.observer().trace.dropped();
      const std::string json = obs::chrome_trace_json({pt});
      if (!cli::write_output(trace_path, json)) return 1;
      if (trace_path != "-")
        std::fprintf(log, "  wrote %s (%zu bytes; open in ui.perfetto.dev)\n",
                     trace_path.c_str(), json.size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smoke simulation failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: delta_gen [<config-file> <out-dir> | --preset <1-7> "
               "<out-dir>] [--metrics] [--trace FILE]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::printf("# sample delta framework configuration "
                "(save and pass to delta_gen)\n%s",
                soc::write_config(soc::rtos_preset(soc::RtosPreset::kRtos4)).c_str());
    return 0;
  }

  cli::Args args("delta_gen",
                 "[<config-file> <out-dir> | --preset <1-7> <out-dir>] "
                 "[--metrics] [--trace FILE]");
  args.opt("preset", "1-7", "generate a Table 3 preset row instead of\nreading a config file", "0")
      .flag("metrics", "print the metrics registry after the smoke run")
      .opt("trace", "FILE", "write a Chrome trace of the smoke run")
      .positional("[<config-file> <out-dir> | --preset <1-7> <out-dir>] "
                  "[--metrics] [--trace FILE]",
                  1, 2)
      .usage_exit(1);
  args.parse(argc, argv);

  const int preset = args.integer("preset");
  const bool metrics = args.on("metrics");
  const std::string trace_path = args.str("trace");
  std::FILE* const log = args.log_stream({"trace"});
  const std::vector<std::string>& positional = args.positionals();

  soc::DeltaConfig cfg;
  std::string out_dir;
  if (preset != 0) {
    if (preset < 1 || preset > 7) {
      std::fprintf(stderr, "preset must be 1..7 (Table 3)\n");
      return 1;
    }
    if (positional.size() != 1) return usage();
    cfg = soc::rtos_preset(soc::rtos_preset_from_int(preset));
    out_dir = positional[0];
  } else {
    if (positional.size() != 2) return usage();
    std::ifstream in(positional[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", positional[0].c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      cfg = soc::read_config(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    out_dir = positional[1];
  }

  const int rc = generate_into(cfg, out_dir, log);
  if (rc != 0) return rc;
  if (metrics || !trace_path.empty())
    return observe(cfg, metrics, trace_path, log);
  return 0;
}

// Design-space exploration — what the delta framework is for (§2.2):
// sweep the seven Table 3 configurations over a common workload through
// the parallel experiment runner, print a comparison table, and emit the
// HDL for a chosen configuration the way Archi_gen would (Fig. 7 /
// Example 1).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "exp/runner.h"
#include "exp/workloads.h"
#include "hw/synth.h"
#include "hw/verilog_gen.h"
#include "soc/archi_gen.h"
#include "soc/delta_framework.h"
#include "soc/utilization.h"

using namespace delta;

int main() {
  std::printf("delta framework design-space exploration\n");

  // The sweep: all seven Table 3 rows x the mixed workload, one seed,
  // fanned out across hardware threads by the experiment runner.
  exp::SweepSpec spec;
  spec.configs = exp::all_preset_points();
  for (exp::ConfigPoint& cp : spec.configs)
    cp.config.stop_on_deadlock = false;  // common workload is deadlock-free
  spec.workloads = {exp::mixed_workload()};
  spec.seeds = {42};
  spec.run_limit = 5'000'000;
  const exp::SweepReport report = exp::run_sweep(spec);

  std::printf("%-7s %-52s %10s %8s %7s\n", "config", "components",
              "exec(cyc)", "lockLat", "done");
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const exp::RunResult& r = report.runs[i];
    const soc::RtosPreset p = soc::kAllRtosPresets[i];
    std::printf("%-7s %-52s %10llu %8.0f %7s\n", r.config.c_str(),
                soc::rtos_preset_description(p).substr(0, 52).c_str(),
                static_cast<unsigned long long>(r.last_finish),
                r.lock_latency.mean, r.all_finished ? "yes" : "NO");
  }
  std::printf("(%zu runs on %zu threads, %.2f s)\n", report.runs.size(),
              report.threads_used, report.wall_seconds);

  // One utilization breakdown (the baseline), from a direct single run.
  {
    soc::DeltaConfig cfg = soc::rtos_preset(soc::RtosPreset::kRtos4);
    cfg.stop_on_deadlock = false;
    auto soc = soc::generate(cfg);
    sim::Rng rng(exp::derive_run_seed(spec.base_seed, 3, 0, 42));
    exp::mixed_workload().build(*soc, rng);
    soc->run(5'000'000);
    std::printf("\nbaseline (RTOS4) utilization breakdown:\n%s",
                soc::utilization_report(*soc).to_string().c_str());
  }

  // Pick a configuration and generate its HDL, like the GUI's last step.
  soc::DeltaConfig chosen = soc::rtos_preset(soc::RtosPreset::kRtos4);
  chosen.lock = soc::LockComponent::kSoclc;
  const auto files = soc::generate_hdl(chosen);
  std::filesystem::create_directories("generated_hdl");
  std::printf("\ngenerated HDL for the chosen configuration "
              "(DAU + SoCLC):\n");
  for (const auto& f : files) {
    std::ofstream(std::filesystem::path("generated_hdl") / f.name)
        << f.contents;
    std::printf("  generated_hdl/%-12s %5zu lines\n", f.name.c_str(),
                hw::count_lines(f.contents));
  }

  // And its silicon cost, the other half of the design decision.
  const double dau = hw::dau_area(5, 5, 4).total();
  const double soclc = hw::soclc_area(chosen.soclc, 4).total();
  std::printf("\nestimated area: DAU %.0f + SoCLC %.0f NAND2 = %.4f%% of "
              "the 40.3M-gate MPSoC\n",
              dau, soclc, hw::area_percent_of_mpsoc(dau + soclc));
  return 0;
}

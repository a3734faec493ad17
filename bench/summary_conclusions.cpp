// §6 Conclusions, verified in one place.
//
// The paper closes with four quantitative claims:
//  (i)   DDU: ~1400x detection speed-up, 46% application speed-up;
//  (ii)  DAU: ~300x avoidance speed-up (99% reduction), 44% application;
//  (iii) SoCLC: ~75% lock-handling speed-up, 43% overall;
//  (iv)  SoCDMMU: ~20% of memory-management time removed, >=9.44%
//        application reductions.
// Each claim pairs a software and a hardware configuration on the same
// workload, so the whole bench is one experiment sweep: four workloads x
// their two configurations, fanned out by the parallel runner.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "exp/runner.h"
#include "exp/workloads.h"
#include "sim/stats.h"

using namespace delta;

namespace {

/// Run one software-vs-hardware pairing on a workload; returns results
/// in {software, hardware} order.
std::pair<exp::RunResult, exp::RunResult> pair_sweep(
    soc::RtosPreset software, soc::RtosPreset hardware,
    const exp::Workload& workload) {
  exp::SweepSpec spec;
  spec.configs = {exp::preset_point(software), exp::preset_point(hardware)};
  spec.workloads = {workload};
  spec.seeds = {0};
  const exp::SweepReport report = exp::run_sweep(spec);
  return {report.runs.at(0), report.runs.at(1)};
}

}  // namespace

int main() {
  bench::header("§6 Conclusions — the four headline claims",
                "Lee & Mooney, DATE 2003, Conclusion items (i)-(iv)");
  bool all_ok = true;

  {  // (i) DDU
    const auto [s, h] = pair_sweep(soc::RtosPreset::kRtos1,
                                   soc::RtosPreset::kRtos2,
                                   exp::jini_workload());
    const double algo_x =
        sim::speedup_factor(s.algorithm_avg, h.algorithm_avg);
    const double app_pct =
        sim::speedup_percent(static_cast<double>(s.app_run_time),
                             static_cast<double>(h.app_run_time));
    const bool ok = s.ok && h.ok && algo_x > 500 && app_pct > 20;
    all_ok &= ok;
    std::printf("(i)   DDU: detection %.0fX faster (paper ~1400X), app "
                "+%.0f%% (paper 46%%)  [%s]\n",
                algo_x, app_pct, ok ? "ok" : "FAIL");
  }

  {  // (ii) DAU (R-dl variant, the 44% row)
    const auto [s, h] = pair_sweep(soc::RtosPreset::kRtos3,
                                   soc::RtosPreset::kRtos4,
                                   exp::rdl_workload());
    const double algo_x =
        sim::speedup_factor(s.algorithm_avg, h.algorithm_avg);
    const double reduction =
        100.0 * (1.0 - h.algorithm_avg / s.algorithm_avg);
    const double app_pct =
        sim::speedup_percent(static_cast<double>(s.app_run_time),
                             static_cast<double>(h.app_run_time));
    const bool ok = s.ok && h.ok && algo_x > 100 && reduction > 99.0 &&
                    app_pct > 25 && h.all_finished && s.all_finished;
    all_ok &= ok;
    std::printf("(ii)  DAU: avoidance %.0fX faster / %.1f%% time removed "
                "(paper ~300X/99%%), app +%.0f%% (paper 44%%)  [%s]\n",
                algo_x, reduction, app_pct, ok ? "ok" : "FAIL");
  }

  {  // (iii) SoCLC
    const auto [s, h] = pair_sweep(soc::RtosPreset::kRtos5,
                                   soc::RtosPreset::kRtos6,
                                   exp::robot_workload());
    const double lock_pct =
        sim::speedup_percent(s.lock_latency.mean, h.lock_latency.mean);
    const double overall_pct =
        sim::speedup_percent(static_cast<double>(s.last_finish),
                             static_cast<double>(h.last_finish));
    const bool ok = s.ok && h.ok && lock_pct > 60 && overall_pct > 30;
    all_ok &= ok;
    std::printf("(iii) SoCLC: lock handling +%.0f%% (paper ~75%%), overall "
                "+%.0f%% (paper 43%%)  [%s]\n",
                lock_pct, overall_pct, ok ? "ok" : "FAIL");
  }

  {  // (iv) SoCDMMU (LU's 9.44% is the paper's floor)
    const auto [s, h] = pair_sweep(soc::RtosPreset::kRtos5,
                                   soc::RtosPreset::kRtos7,
                                   exp::splash_workload("lu"));
    const double mgmt_percent =
        s.last_finish == 0 ? 0.0
                           : 100.0 * static_cast<double>(s.mgmt_cycles) /
                                 static_cast<double>(s.last_finish);
    const double exe_reduction =
        100.0 * (1.0 - static_cast<double>(h.last_finish) /
                           static_cast<double>(s.last_finish));
    const bool ok = s.ok && h.ok && mgmt_percent > 5 && exe_reduction > 7;
    all_ok &= ok;
    std::printf("(iv)  SoCDMMU: LU spends %.1f%% in memory management "
                "(paper 9.9%%); hardware removes %.1f%% of execution "
                "(paper 9.44%%)  [%s]\n",
                mgmt_percent, exe_reduction, ok ? "ok" : "FAIL");
  }

  std::printf("\nall four conclusions reproduced: %s\n",
              all_ok ? "YES" : "NO");
  return all_ok ? 0 : 1;
}

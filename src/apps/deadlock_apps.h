// The deadlock scenario applications of the paper's evaluation.
//
//  * jini_app  — §5.3, Table 4 / Fig. 15: a Jini-lookup-style workload on
//    four PEs that ends in deadlock at t5; used to compare detection in
//    software (RTOS1) vs the DDU (RTOS2) — Table 5.
//  * gdl_app   — §5.4.1, Table 6 / Fig. 16: the grant-deadlock scenario;
//    avoidance grants IDCT to the lower-priority p3 — Table 7.
//  * rdl_app   — §5.4.3, Table 8 / Fig. 17: the request-deadlock
//    scenario; avoidance asks p2 to give up IDCT — Table 9.
//
// Resource indices follow the paper: q1 = VI (0), q2 = IDCT (1),
// q3 = DSP (2), q4 = WI (3). Task p_k runs on PE_k with priority k
// (p1 highest).
#pragma once

#include "soc/mpsoc.h"

namespace delta::apps {

/// Measurement summary of one scenario run.
struct DeadlockAppReport {
  bool deadlock_detected = false;
  sim::Cycles detection_time = 0;     ///< when detection fired (Table 5)
  sim::Cycles app_run_time = 0;       ///< Tables 5/7/9 "Application Run Time"
  double algorithm_avg_cycles = 0.0;  ///< "Algorithm Run Time" (averaged)
  std::size_t invocations = 0;        ///< times the algorithm ran
  bool all_finished = false;
};

/// Build the Table 4 workload into `soc` (does not run it).
void build_jini_app(soc::Mpsoc& soc);

/// Build the Table 6 (grant-deadlock) workload.
void build_gdl_app(soc::Mpsoc& soc);

/// Build the Table 8 (request-deadlock) workload.
void build_rdl_app(soc::Mpsoc& soc);

/// Run a built scenario to completion and collect the report.
DeadlockAppReport run_deadlock_app(soc::Mpsoc& soc,
                                   sim::Cycles limit = 2'000'000);

}  // namespace delta::apps

// Task phase time read back from a kernel's phase log.
//
// The kernel keeps no per-task blocked-time counter; tests fold
// Kernel::transitions() through obs::fold_phases(), the same fold the
// timeline, utilization report, sampler and profiler use.
#pragma once

#include "obs/critpath.h"
#include "rtos/kernel.h"

namespace delta::tests {

/// Cycles task `id` spent blocked, up to the simulator clock.
inline sim::Cycles blocked_cycles(rtos::Kernel& k, rtos::TaskId id) {
  sim::Cycles total = 0;
  for (const obs::PhaseSpan& s : obs::fold_phases(
           k.transitions(), k.task_count(), k.simulator().now()))
    if (s.task == id && s.phase == obs::TaskPhase::kBlocked)
      total += s.end - s.begin;
  return total;
}

}  // namespace delta::tests

// Execution timelines (the Fig. 20 view).
//
// Per-task execution intervals of a finished kernel, rendered as an
// ASCII Gantt chart: the same picture the paper's Fig. 20 draws to
// explain IPCP behaviour (task3 holding PE2 through its critical
// section while task2 waits).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "rtos/kernel.h"

namespace delta::rtos {

/// The kernel's phase log (Kernel::transitions(), kept while
/// KernelConfig::record_transitions is on) folded by obs::fold_phases()
/// into running/blocked/ready spans, plus the task names to label them.
class Timeline {
 public:
  /// Build from a finished kernel. `until` clips the horizon.
  static Timeline from_kernel(Kernel& kernel, sim::Cycles until);

  /// Every span, in the order fold_phases() closed them.
  [[nodiscard]] const std::vector<obs::PhaseSpan>& spans() const {
    return spans_;
  }

  /// Spans of one task.
  [[nodiscard]] std::vector<obs::PhaseSpan> for_task(TaskId id) const;

  /// Total running time of a task within the horizon.
  [[nodiscard]] sim::Cycles running_time(TaskId id) const;

  /// Render an ASCII Gantt chart: one row per task, `width` columns over
  /// [0, horizon]. '#' running, '.' blocked, ' ' ready/idle.
  [[nodiscard]] std::string gantt(std::size_t width = 72) const;

  [[nodiscard]] sim::Cycles horizon() const { return horizon_; }

 private:
  std::vector<obs::PhaseSpan> spans_;
  std::vector<std::string> names_;
  sim::Cycles horizon_ = 0;
};

}  // namespace delta::rtos

// Execution timelines (the Fig. 20 view).
//
// Reconstructs per-PE/per-task execution intervals from a finished
// kernel and renders them as an ASCII Gantt chart — the same picture the
// paper's Fig. 20 draws to explain IPCP behaviour (task3 holding PE2
// through its critical section while task2 waits).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "rtos/kernel.h"

namespace delta::rtos {

/// One contiguous interval a task spent in a state.
struct TimelineSpan {
  TaskId task = kNoTask;
  sim::Cycles begin = 0;
  sim::Cycles end = 0;
  enum class What : std::uint8_t { kRunning, kBlocked, kReady } what =
      What::kRunning;
};

/// Folds the kernel's task-state transition log (Kernel::transitions(),
/// kept while KernelConfig::record_transitions is on) after a run into
/// running/blocked/ready spans, one per state a task held.
class Timeline {
 public:
  /// Build from a finished kernel. `until` clips the horizon.
  static Timeline from_kernel(Kernel& kernel, sim::Cycles until);

  [[nodiscard]] const std::vector<TimelineSpan>& spans() const {
    return spans_;
  }

  /// Spans of one task.
  [[nodiscard]] std::vector<TimelineSpan> for_task(TaskId id) const;

  /// Total running time of a task within the horizon.
  [[nodiscard]] sim::Cycles running_time(TaskId id) const;

  /// Render an ASCII Gantt chart: one row per task, `width` columns over
  /// [0, horizon]. '#' running, '.' blocked, ' ' ready/idle.
  [[nodiscard]] std::string gantt(std::size_t width = 72) const;

  [[nodiscard]] sim::Cycles horizon() const { return horizon_; }

 private:
  std::vector<TimelineSpan> spans_;
  std::vector<std::string> names_;
  sim::Cycles horizon_ = 0;
};

}  // namespace delta::rtos

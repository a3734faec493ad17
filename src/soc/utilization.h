// System utilization reporting.
//
// Summarizes a finished run: per-PE busy fraction (the running spans
// obs::fold_phases() folds from the kernel's phase log), bus occupancy
// and per-master traffic, device busy time, and task response
// statistics — the numbers a designer exploring Table 3 configurations
// wants next to the raw makespan.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "soc/mpsoc.h"

namespace delta::soc {

/// One PE's share of the horizon spent running tasks.
struct PeUtilization {
  rtos::PeId pe = 0;
  sim::Cycles busy = 0;
  double fraction = 0.0;
};

/// The whole report.
struct UtilizationReport {
  sim::Cycles horizon = 0;
  std::vector<PeUtilization> pes;
  double bus_fraction = 0.0;            ///< bus busy / horizon
  std::uint64_t bus_words = 0;
  std::vector<double> device_fraction;  ///< per resource
  std::size_t deadline_misses = 0;
  bool all_finished = false;

  /// Render as an aligned text table.
  [[nodiscard]] std::string to_string() const;
};

/// Build the report for a finished system. The horizon is `horizon` when
/// non-zero, else the last task finish time, and the simulator clock
/// only when no task finished.
UtilizationReport utilization_report(Mpsoc& soc, sim::Cycles horizon = 0);

}  // namespace delta::soc

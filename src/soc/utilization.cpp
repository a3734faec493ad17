#include "soc/utilization.h"

#include <algorithm>
#include <sstream>

namespace delta::soc {

UtilizationReport utilization_report(Mpsoc& soc, sim::Cycles horizon) {
  rtos::Kernel& k = soc.kernel();
  UtilizationReport r;
  r.horizon = horizon != 0 ? horizon : k.last_finish_time();
  if (r.horizon == 0) r.horizon = soc.simulator().now();
  r.all_finished = k.all_finished();
  r.deadline_misses = k.deadline_misses();

  // PE busy time: sum of running spans of the tasks pinned to each PE.
  std::vector<sim::Cycles> busy(k.config().pe_count, 0);
  for (const obs::PhaseSpan& s :
       obs::fold_phases(k.transitions(), k.task_count(), r.horizon))
    if (s.phase == obs::TaskPhase::kRunning)
      busy[k.task(s.task).pe] += s.end - s.begin;
  for (std::size_t pe = 0; pe < busy.size(); ++pe) {
    PeUtilization u;
    u.pe = pe;
    u.busy = busy[pe];
    u.fraction = r.horizon == 0 ? 0.0
                                : static_cast<double>(u.busy) /
                                      static_cast<double>(r.horizon);
    r.pes.push_back(u);
  }

  // Bus occupancy.
  sim::Cycles bus_busy = 0;
  for (bus::MasterId m = 0; m < soc.bus().masters(); ++m) {
    bus_busy += soc.bus().stats(m).busy_cycles;
    r.bus_words += soc.bus().stats(m).words;
  }
  r.bus_fraction = r.horizon == 0 ? 0.0
                                  : std::min(1.0, static_cast<double>(bus_busy) /
                                                      static_cast<double>(r.horizon));

  // Device occupancy.
  for (std::size_t d = 0; d < soc.config().resources.size(); ++d) {
    const double f =
        r.horizon == 0
            ? 0.0
            : static_cast<double>(k.devices().busy_cycles(d)) /
                  static_cast<double>(r.horizon);
    r.device_fraction.push_back(std::min(1.0, f));
  }
  return r;
}

std::string UtilizationReport::to_string() const {
  std::ostringstream os;
  os << "utilization over " << horizon << " cycles ("
     << (all_finished ? "all tasks finished" : "NOT all finished");
  if (deadline_misses > 0) os << ", " << deadline_misses << " deadline misses";
  os << ")\n";
  for (const PeUtilization& u : pes) {
    os << "  PE" << u.pe << "  busy " << u.busy << " (" << std::fixed;
    os.precision(1);
    os << u.fraction * 100.0 << "%)\n";
  }
  os.precision(1);
  os << "  bus  " << bus_fraction * 100.0 << "% occupied, " << bus_words
     << " words moved\n";
  for (std::size_t d = 0; d < device_fraction.size(); ++d) {
    if (device_fraction[d] == 0.0) continue;
    os << "  dev" << d << "  " << device_fraction[d] * 100.0 << "% busy\n";
  }
  return os.str();
}

}  // namespace delta::soc

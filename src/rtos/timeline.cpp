#include "rtos/timeline.h"

#include <algorithm>
#include <sstream>

namespace delta::rtos {

Timeline Timeline::from_kernel(Kernel& kernel, sim::Cycles until) {
  Timeline tl;
  tl.horizon_ = until;
  const std::size_t n = kernel.task_count();
  for (TaskId t = 0; t < n; ++t) tl.names_.push_back(kernel.task(t).name);
  tl.spans_ = obs::fold_phases(kernel.transitions(), n, until);
  return tl;
}

std::vector<obs::PhaseSpan> Timeline::for_task(TaskId id) const {
  std::vector<obs::PhaseSpan> out;
  for (const obs::PhaseSpan& s : spans_)
    if (s.task == id) out.push_back(s);
  return out;
}

sim::Cycles Timeline::running_time(TaskId id) const {
  sim::Cycles total = 0;
  for (const obs::PhaseSpan& s : spans_)
    if (s.task == id && s.phase == obs::TaskPhase::kRunning)
      total += s.end - s.begin;
  return total;
}

std::string Timeline::gantt(std::size_t width) const {
  std::ostringstream os;
  if (horizon_ == 0 || width == 0) return "";
  const double scale =
      static_cast<double>(width) / static_cast<double>(horizon_);

  os << "        0";
  for (std::size_t i = 9; i < width; ++i) os << ' ';
  os << horizon_ << "\n";

  for (TaskId t = 0; t < names_.size(); ++t) {
    std::string row(width, ' ');
    for (const obs::PhaseSpan& s : for_task(t)) {
      const auto b = static_cast<std::size_t>(
          static_cast<double>(s.begin) * scale);
      auto e = static_cast<std::size_t>(static_cast<double>(s.end) * scale);
      e = std::min(std::max(e, b + 1), width);
      const char c = s.phase == obs::TaskPhase::kRunning   ? '#'
                     : s.phase == obs::TaskPhase::kBlocked ? '.'
                                                           : ' ';
      for (std::size_t i = b; i < e; ++i)
        if (c != ' ' || row[i] == ' ') row[i] = (row[i] == '#') ? '#' : c;
    }
    std::string name = names_[t];
    name.resize(7, ' ');
    os << name << " |" << row << "|\n";
  }
  os << "        ('#' running, '.' blocked/waiting, ' ' ready or idle)\n";
  return os.str();
}

}  // namespace delta::rtos

#include "sim/trace.h"

#include <iomanip>
#include <ostream>

namespace delta::sim {

void Trace::record(Cycles t, std::string_view channel, std::string_view text) {
  events_.push_back(TraceEvent{t, std::string(channel), std::string(text)});
}

std::vector<TraceEvent> Trace::matching(std::string_view needle) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_)
    if (e.text.find(needle) != std::string::npos) out.push_back(e);
  return out;
}

void Trace::print(std::ostream& os) const {
  os << std::setw(10) << "cycle" << "  " << std::setw(8) << std::left
     << "channel" << std::right << "  event\n";
  for (const auto& e : events_)
    os << std::setw(10) << e.time << "  " << std::setw(8) << std::left
       << e.channel << std::right << "  " << e.text << '\n';
}

}  // namespace delta::sim

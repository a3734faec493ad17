// Timeline tracing.
//
// Components record named events ("p2 requests q2", "lock acquired", ...)
// against simulation time. The benches use traces to print the paper's
// event tables (Tables 4/6/8) and the Fig. 20 style execution time-lines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"

namespace delta::sim {

/// One recorded trace event.
struct TraceEvent {
  Cycles time = 0;
  std::string channel;  ///< component or category, e.g. "DAU", "PE2"
  std::string text;     ///< human-readable description
};

/// Append-only event log with text search and table formatting.
class Trace {
 public:
  /// Record an event at time `t` on `channel`.
  void record(Cycles t, std::string_view channel, std::string_view text);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Events whose text contains `needle`.
  [[nodiscard]] std::vector<TraceEvent> matching(
      std::string_view needle) const;

  /// Render as a two-column (time | event) table like the paper's Table 4.
  void print(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace delta::sim

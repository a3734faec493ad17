// Chrome trace-event ("Trace Event Format") exporter.
//
// The produced JSON loads directly in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing: every recorded obs::Event becomes a complete
// duration event ("ph":"X") with pid = the simulation/run id, tid = the
// PE (bus master) id, ts/dur in simulated cycles (labelled via the
// displayTimeUnit hint), and kind-specific argument names.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "obs/trace.h"

namespace delta::obs {

/// One wait-for dependency rendered as a flow arrow between threads
/// (waiter PE -> holder PE) at the instant the waiter blocked.
struct FlowArrow {
  std::uint16_t from_tid = 0;  ///< waiter's PE
  std::uint16_t to_tid = 0;    ///< holder's PE
  sim::Cycles ts = 0;          ///< block time
  std::string name;            ///< e.g. "t2 waits IDCT"
};

/// One simulation's worth of events, exported as one trace "process".
struct ProcessTrace {
  std::uint32_t pid = 0;      ///< run id; distinguishes sweeps' runs
  std::string name;           ///< shown as the process name in the UI
  std::vector<Event> events;  ///< chronological (TraceRecorder::events())
  std::uint64_t dropped = 0;  ///< ring overflow count, surfaced as metadata
  /// PE count of the run: tids [0, pe_count) are named "PE<i>" and tid
  /// pe_count (the extra bus-master port) "HW units". 0 = unknown.
  std::size_t pe_count = 0;
  /// Windowed samples, exported as "ph":"C" counter tracks (one per
  /// series track). Empty = no counters.
  TimeSeries series;
  /// Engine introspection gauges (queue depth, queue footprint),
  /// exported as additional counter tracks. Kept separate from
  /// `series` because its producer (soc) must not leak these into
  /// profile reports. Empty = none.
  TimeSeries engine_series;
  /// Wait-for arrows ("ph":"s"/"f" flow pairs).
  std::vector<FlowArrow> flows;
};

/// Category string used for the "cat" field, e.g. "bus", "lock".
[[nodiscard]] const char* event_category(EventKind kind);

/// Render the full trace document. Deterministic: depends only on the
/// argument, never on wall time or iteration order of hashed containers.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ProcessTrace>& processes);

}  // namespace delta::obs

// Task phase spans, cycle attribution and blocking-chain analysis.
//
// fold_phases() is the one place the kernel's task phase log becomes
// clipped ready/running/blocked spans; the Gantt timeline, the
// utilization report, the windowed sampler and the profiler below all
// read its output. The profiler folds a run's structured trace
// (obs/trace.h) plus those spans into (a) per-task cycle buckets — run /
// spin / blocked / kernel overhead, summing *exactly* to the task's
// total accounted cycles — and (b) the wait-for span graph (blocked
// task -> holder) from which the longest blocking chain and a
// per-object contention ranking fall out. This is the "where did the
// RTOS1-vs-RTOS4 gap go" lens of the paper's Tables 5-12, in the spirit
// of the dependency-graph view of multiprocessor synchronization cost.
//
// Everything here is integer arithmetic over clipped half-open spans
// [begin, end), so results are deterministic and the bucket invariant
//   run + spin + blocked + overhead == total
// holds exactly, not approximately. The module is rtos-agnostic: it
// consumes a generic ProfileInput that src/soc/profile.h assembles from
// a finished Mpsoc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/sim_time.h"

namespace delta::obs {

/// Scheduler phase of a task, mirrored from the kernel's task states.
/// kAbsent covers not-started / suspended / finished — time outside the
/// task's accounted total.
enum class TaskPhase : std::uint8_t { kAbsent, kReady, kRunning, kBlocked };

/// One entry of the phase log (the kernel's state-transition log).
struct PhaseChange {
  sim::Cycles time = 0;
  std::uint32_t task = 0;
  TaskPhase to = TaskPhase::kAbsent;
};

/// One contiguous interval [begin, end) a task spent in one phase.
struct PhaseSpan {
  std::uint32_t task = 0;
  sim::Cycles begin = 0;
  sim::Cycles end = 0;
  TaskPhase phase = TaskPhase::kAbsent;
};

/// Fold a phase log (non-decreasing times) into spans, in the order they
/// close: at the task's next change, or at `horizon` for phases still
/// open. Spans are clipped to `horizon`; kAbsent and empty spans are
/// dropped, and entries for task ids >= `tasks` are ignored.
[[nodiscard]] std::vector<PhaseSpan> fold_phases(
    const std::vector<PhaseChange>& log, std::size_t tasks,
    sim::Cycles horizon);

/// Static description of one task.
struct ProfileTaskInfo {
  std::string name;
  std::uint16_t pe = 0;
};

/// Everything build_profile() needs, decoupled from the kernel types.
struct ProfileInput {
  std::vector<ProfileTaskInfo> tasks;
  /// Phase log in non-decreasing time order; entries past `horizon` are
  /// clipped, open phases are closed at `horizon`.
  std::vector<PhaseChange> phases;
  /// Retained structured-trace events in chronological order.
  std::vector<Event> events;
  std::uint64_t events_dropped = 0;  ///< ring overflow count
  sim::Cycles horizon = 0;
  /// Resource names for contention labels (index = ResourceId).
  std::vector<std::string> resource_names;
};

/// Per-task cycle attribution. All five buckets plus the two overhead
/// sub-buckets are exact clipped-span cycle counts;
/// run + spin + blocked + overhead == total.
struct TaskBuckets {
  std::uint32_t task = 0;
  std::string name;
  std::uint16_t pe = 0;
  sim::Cycles total = 0;    ///< ready + running + blocked time
  sim::Cycles run = 0;      ///< running, net of spin and kernel service
  sim::Cycles spin = 0;     ///< busy-wait polling on contended locks
  sim::Cycles blocked = 0;  ///< suspended on a resource/lock/IPC wait
  sim::Cycles overhead = 0; ///< sched_wait + service
  sim::Cycles sched_wait = 0;  ///< ready but not dispatched
  sim::Cycles service = 0;     ///< kernel services + context switches
};

/// One blocked interval annotated with what the task waited on.
struct WaitSpan {
  std::uint32_t waiter = 0;
  bool has_holder = false;
  std::uint32_t holder = 0;  ///< valid iff has_holder
  WaitObject object_kind = WaitObject::kResource;
  std::uint64_t object = 0;
  sim::Cycles begin = 0;
  sim::Cycles end = 0;  ///< clipped to the horizon
};

/// Aggregate contention on one object, ranked in ProfileReport.
struct ContentionEntry {
  WaitObject kind = WaitObject::kResource;
  std::uint64_t object = 0;
  std::string label;  ///< "IDCT", "lock3", ...
  std::uint64_t waits = 0;          ///< blocking waits observed
  sim::Cycles blocked_cycles = 0;   ///< total blocked time on it
  sim::Cycles spin_cycles = 0;      ///< busy-wait time (locks only)
};

/// The analysis result. Field order here is the report's JSON order.
struct ProfileReport {
  sim::Cycles horizon = 0;
  std::uint64_t events_seen = 0;     ///< retained trace events consumed
  std::uint64_t events_dropped = 0;  ///< ring overflow (attribution of
                                     ///< dropped events is lost)
  std::vector<TaskBuckets> tasks;    ///< by task id
  std::vector<WaitSpan> wait_spans;  ///< every annotated blocked span
  /// The heaviest chain waiter -> holder -> holder's holder -> ...
  /// where each link's blocked span overlaps its predecessor's.
  std::vector<WaitSpan> critical_path;
  sim::Cycles critical_path_cycles = 0;  ///< sum of link span lengths
  /// Sorted by blocked_cycles + spin_cycles descending (ties: kind,
  /// then object id ascending).
  std::vector<ContentionEntry> contention;
};

/// Label for a wait object: the resource name when known, otherwise
/// "<kind><id>" ("lock3", "queue0", ...).
[[nodiscard]] std::string object_label(
    WaitObject kind, std::uint64_t object,
    const std::vector<std::string>& resource_names);

/// Run the analysis. Deterministic: depends only on the input.
[[nodiscard]] ProfileReport build_profile(const ProfileInput& in);

}  // namespace delta::obs

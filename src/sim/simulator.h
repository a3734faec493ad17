// The discrete-event simulation kernel.
//
// This is the substrate standing in for the paper's Seamless CVE
// co-simulation environment (§5.1): components schedule callbacks at
// absolute bus-clock cycles and the kernel executes them in deterministic
// order. There is deliberately no threading — determinism is a feature.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.h"
#include "sim/sim_time.h"
#include "sim/trace.h"

namespace delta::sim {

/// Discrete-event simulator driving one modeled MPSoC.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in bus clock cycles.
  [[nodiscard]] Cycles now() const { return now_; }

  /// Schedule `fn` to run `delay` cycles from now. Forwards the closure
  /// into the event queue's slab node unconstructed — captures are built
  /// in place, never relocated.
  template <typename F>
  EventId schedule_in(Cycles delay, F&& fn) {
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute cycle `at` (must be >= now()).
  template <typename F>
  EventId schedule_at(Cycles at, F&& fn) {
    if (at < now_) throw_past_schedule();
    return queue_.schedule(at, std::forward<F>(fn));
  }

  /// Cancel a scheduled event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the event queue drains or `limit` cycles elapse.
  /// Returns the final simulation time.
  Cycles run(Cycles limit = kNeverCycles);

  /// Execute exactly one event if any is pending before `limit`.
  /// Returns true if an event fired. Inline: the queue's single-scan
  /// pop and the callback dispatch fold into the caller's loop.
  bool step(Cycles limit = kNeverCycles) {
    Fired f;
    if (!queue_.pop_if_at_most(limit, f)) return false;
    assert(f.at >= now_ && "event queue went backwards");
    now_ = f.at;
    ++dispatched_;
    f.fn();
    return true;
  }

  /// True when no further events are pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Number of events dispatched since construction.
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Start collecting host-side engine statistics on the event queue
  /// (idempotent; off by default so the hot path stays a null test).
  void enable_engine_stats() { queue_.enable_stats(); }

  /// True once enable_engine_stats() has been called.
  [[nodiscard]] bool engine_stats_enabled() const {
    return queue_.stats_enabled();
  }

  /// Snapshot of the queue's engine stats (zeroed when disabled).
  [[nodiscard]] EngineStats engine_stats() const {
    return queue_.stats_snapshot();
  }

  /// Gauges for engine time-series tracks: pending events and
  /// retained queue memory.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t queue_footprint_bytes() const {
    return queue_.footprint_bytes();
  }

  /// Event/timeline trace shared by all components of this simulation.
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

 private:
  [[noreturn]] static void throw_past_schedule();

  Cycles now_ = 0;
  EventQueue queue_;
  Trace trace_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace delta::sim

// Deadlock Avoidance Unit (DAU) — hardware model (paper §4.3.2-4.3.3).
//
// Architecture per Fig. 14: command registers (request/release commands
// from each PE), status registers, an embedded DDU, and the DAA finite
// state machine (Algorithm 3). The status-register layout (done / busy /
// successful / pending / give-up / which-process / which-resource /
// livelock / G-dl / R-dl) lives in the generated Verilog
// (hw/verilog_gen.h). This model returns the decision itself: the shared
// DaaEngine's RequestResult/ReleaseResult (src/deadlock/daa.h), driven by
// the DDU hardware detector. What it adds is the FSM cycle accounting
// that Table 2 quotes: worst case = 8 FSM steps + (#probes x DDU steps),
// e.g. 6*5 + 8 = 38 for a 5x5 unit.
#pragma once

#include <cstdint>
#include <memory>

#include "deadlock/daa.h"
#include "hw/ddu.h"
#include "obs/metrics.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Hardware DAU for a fixed m x n system.
class Dau {
 public:
  Dau(std::size_t resources, std::size_t processes);

  /// FSM step costs (bus cycles). The request path decodes the command,
  /// checks availability, optionally probes the DDU once, and latches
  /// status; the release path additionally walks the waiter queue with one
  /// DDU probe per candidate (Algorithm 3 lines 17-22).
  static constexpr sim::Cycles kRequestFsmSteps = 4;
  static constexpr sim::Cycles kReleaseFsmSteps = 8;

  /// Process p writes a REQUEST(q) command register.
  deadlock::RequestResult request(rag::ProcId p, rag::ResId q);

  /// Process p writes a RELEASE(q) command register.
  deadlock::ReleaseResult release(rag::ProcId p, rag::ResId q);

  /// Give-up-complete command: after a livelock victim released its
  /// holdings, the FSM re-runs grant arbitration on the idle resource.
  deadlock::ReleaseResult retry_grant(rag::ResId q);

  /// Withdraw a pending request (the RTOS aborts/restarts a task).
  void cancel_request(rag::ProcId p, rag::ResId q);

  /// Priority table (one register per process; smaller = higher).
  void set_priority(rag::ProcId p, int priority);

  /// Cycles consumed by the most recent command (FSM + DDU probes).
  [[nodiscard]] sim::Cycles last_cycles() const { return last_cycles_; }

  /// DDU probes issued by the most recent command.
  [[nodiscard]] std::size_t last_probes() const { return last_probes_; }

  /// Internal tracked state (grants + pending requests).
  [[nodiscard]] const rag::StateMatrix& state() const {
    return engine_->state();
  }
  [[nodiscard]] rag::ProcId owner(rag::ResId q) const {
    return engine_->owner(q);
  }

  /// Worst-case cycles for one command on this geometry (Table 2).
  [[nodiscard]] sim::Cycles worst_case_cycles() const;

  /// TEST ONLY: flip the grant-safety check. When enabled, the FSM's
  /// embedded DDU probe result is discarded (every tentative grant is
  /// reported safe), so the unit grants its way into real deadlocks.
  /// The differential fuzzer uses this to prove it can catch a broken
  /// unit; never enable outside tests.
  void inject_grant_fault(bool on) { grant_fault_ = on; }
  [[nodiscard]] bool grant_fault() const { return grant_fault_; }

  /// Register "dau.commands"/"dau.ddu_probes" counters; every command
  /// (request/release/retry_grant) then bumps them.
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  void note_command();

  std::unique_ptr<deadlock::DaaEngine> engine_;
  deadlock::TerminalReduction probe_scratch_;  // the embedded DDU's datapath
  std::size_t m_, n_;
  sim::Cycles last_cycles_ = 0;
  sim::Cycles probe_cycles_ = 0;  // accumulated DDU time per event
  std::size_t last_probes_ = 0;
  bool grant_fault_ = false;
  obs::Counter* ctr_commands_ = nullptr;
  obs::Counter* ctr_probes_ = nullptr;
};

}  // namespace delta::hw

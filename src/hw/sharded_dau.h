// Sharded Deadlock Avoidance Unit: the DAU's Algorithm-3 FSM driven by
// the hierarchical detector instead of one monolithic embedded DDU.
//
// The decision engine is the same DaaEngine as hw/dau.h, and both units
// return its RequestResult/ReleaseResult, so every grant/pend/give-up
// decision is identical to the monolithic DAU's (the hierarchical
// detector returns the monolithic verdict on every probe —
// deadlock/hierarchical.h). What changes is the probe cost
// split: each probe pays the event cluster's small DDU (unit cycles,
// bounded by the cluster iteration bound) and, when the event cluster
// has incident cross-cluster edges, a software residue charge that the
// invoking PE executes (the resolver escalation path).
#pragma once

#include <cstdint>
#include <memory>

#include "deadlock/daa.h"
#include "deadlock/hierarchical.h"
#include "hw/dau.h"
#include "obs/metrics.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Hardware sharded DAU for a fixed m x n x C system. Mirrors hw::Dau's
/// command API.
class ShardedDau {
 public:
  ShardedDau(std::size_t resources, std::size_t processes,
             std::size_t clusters);

  [[nodiscard]] const deadlock::ClusterMap& cluster_map() const {
    return det_.map();
  }

  deadlock::RequestResult request(rag::ProcId p, rag::ResId q);
  deadlock::ReleaseResult release(rag::ProcId p, rag::ResId q);
  deadlock::ReleaseResult retry_grant(rag::ResId q);
  void cancel_request(rag::ProcId p, rag::ResId q);
  void set_priority(rag::ProcId p, int priority);

  /// Unit time of the most recent command: FSM steps + per-probe local
  /// cluster-DDU cycles (the escalated residue is *not* included — it
  /// runs in software on the PE; see last_escalation_cycles()).
  [[nodiscard]] sim::Cycles last_cycles() const { return last_cycles_; }

  /// Software residue cycles the invoking PE executed for the most
  /// recent command (0 when no probe escalated).
  [[nodiscard]] sim::Cycles last_escalation_cycles() const {
    return last_escalation_cycles_;
  }

  /// Detection probes / escalated probes of the most recent command.
  [[nodiscard]] std::size_t last_probes() const { return last_probes_; }
  [[nodiscard]] std::size_t last_escalations() const {
    return last_escalations_;
  }

  [[nodiscard]] const rag::StateMatrix& state() const {
    return engine_->state();
  }
  [[nodiscard]] rag::ProcId owner(rag::ResId q) const {
    return engine_->owner(q);
  }

  /// Worst-case *unit* cycles for one command: n probes at the largest
  /// cluster's iteration bound + FSM stages (cf. Dau::worst_case_cycles,
  /// which pays the full-geometry bound per probe).
  [[nodiscard]] sim::Cycles worst_case_cycles() const;

  /// TEST ONLY: same grant-safety fault as Dau::inject_grant_fault.
  void inject_grant_fault(bool on) { grant_fault_ = on; }
  [[nodiscard]] bool grant_fault() const { return grant_fault_; }

  /// Register "sharded_dau.commands" / ".probes" / ".escalations".
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  void begin_command(rag::ResId q);
  void end_command(sim::Cycles fsm);
  void note_command();

  deadlock::HierarchicalDetector det_;
  std::unique_ptr<deadlock::DaaEngine> engine_;
  std::size_t m_, n_;
  rag::ResId command_res_ = rag::kNoRes;  ///< probe context for detection
  sim::Cycles probe_cycles_ = 0;
  sim::Cycles escalation_cycles_ = 0;
  std::size_t probes_ = 0, escalations_ = 0;
  sim::Cycles last_cycles_ = 0;
  sim::Cycles last_escalation_cycles_ = 0;
  std::size_t last_probes_ = 0, last_escalations_ = 0;
  /// The committed engine state is provably deadlock-free. Cleared when
  /// Algorithm 3 parks an R-dl (the cycle stays in the matrix while the
  /// asked process unwinds); re-set once a command commits a state that
  /// a probe saw clean. While cleared, probes run whole-state detection
  /// (sharded_dau.cpp explains why detect_event would be unsound).
  bool clean_ = true;
  bool grant_fault_ = false;
  obs::Counter* ctr_commands_ = nullptr;
  obs::Counter* ctr_probes_ = nullptr;
  obs::Counter* ctr_escalations_ = nullptr;
};

}  // namespace delta::hw

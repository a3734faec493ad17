// Deadlock Detection Unit (DDU) — hardware model (paper §4.2.2-4.2.4).
//
// The DDU holds the system state matrix in hardware cells (two bits per
// entry, Eq. 2) and evaluates one terminal-reduction step per hardware
// iteration: row/column Bit-Wise-Or aggregates (Eq. 3), XOR terminal tests
// (Eq. 4), the OR termination condition (Eq. 5), AND connect tests (Eq. 6)
// and the final deadlock decide (Eq. 7). All cells evaluate in parallel,
// which is what gives the O(min(m,n)) iteration bound the software PDDA
// cannot reach.
//
// The model is cycle-faithful, not gate-faithful: each iteration costs one
// bus-clock cycle. Eqs. 3-7 are evaluated as word-parallel row and column
// ORs over the request/grant bit-planes, in the one reduction loop shared
// with the software PDDA (deadlock::TerminalReduction): a round reduces
// exactly when some weight cell asserts tau (Eq. 5), and once none does,
// an edge survives exactly when some node is a connect node (Eq. 7). The
// model is checked against the reference reduction rag::reduce and the
// DFS cycle oracle (tests/hw/ddu_test.cpp).
#pragma once

#include <cstdint>

#include "deadlock/pdda.h"
#include "obs/metrics.h"
#include "rag/state_matrix.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Result of one DDU computation run.
struct DduResult {
  bool deadlock = false;
  std::size_t iterations = 0;   ///< reduction steps that removed edges
  sim::Cycles cycles = 0;       ///< hardware time: max(iterations, 1)
};

/// Hardware DDU for a fixed m x n system.
class Ddu {
 public:
  Ddu(std::size_t resources, std::size_t processes);

  [[nodiscard]] std::size_t resources() const { return cells_.resources(); }
  [[nodiscard]] std::size_t processes() const { return cells_.processes(); }

  /// PE-visible matrix-cell writes (one bus transaction each in the SoC).
  void set_edge(rag::ResId s, rag::ProcId t, rag::Edge e) {
    cells_.set(s, t, e);
  }
  [[nodiscard]] rag::Edge edge(rag::ResId s, rag::ProcId t) const {
    return cells_.at(s, t);
  }

  /// Load a whole state (used by the DAU, which owns its own matrix).
  void load(const rag::StateMatrix& m);

  /// Current cell contents.
  [[nodiscard]] const rag::StateMatrix& matrix() const { return cells_; }

  /// Start the unit: runs the reduction on a working copy of the cells
  /// (the architectural matrix is preserved, as in the real unit where the
  /// weight-cell pipeline operates on shadow latches). The copy lives in
  /// scratch the unit owns, so a run allocates nothing.
  DduResult run();

  /// Run the unit's datapath on an arbitrary state, in `scratch`.
  static DduResult evaluate(const rag::StateMatrix& state,
                            deadlock::TerminalReduction& scratch);

  /// Convenience: the same with fresh scratch.
  static DduResult evaluate(const rag::StateMatrix& state);

  /// Proven upper bound on iterations: 2*min(m,n) - 3 (paper §4.2.1).
  [[nodiscard]] std::size_t iteration_bound() const;

  /// Register "ddu.runs"/"ddu.iterations" counters; every run() then
  /// bumps them. The registry must outlive the unit.
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  rag::StateMatrix cells_;
  deadlock::TerminalReduction reduce_;
  obs::Counter* ctr_runs_ = nullptr;
  obs::Counter* ctr_iterations_ = nullptr;
};

}  // namespace delta::hw

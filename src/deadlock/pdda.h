// Software implementation of the Parallel Deadlock Detection Algorithm
// (PDDA, Algorithms 1 and 2 of the paper), as it would run on one PE.
//
// "Parallel" refers to the algorithm's hardware-friendly structure; in
// software the terminal-row/column scans execute serially, which is
// exactly why the paper's RTOS1 configuration is slow (Table 5) and what
// the DDU (src/hw/ddu.h) accelerates. Every operation the serial code
// would perform is counted in an OpMeter for cycle accounting; the host
// itself runs the word-parallel TerminalReduction below and derives
// that meter from its summary.
#pragma once

#include <cstdint>
#include <vector>

#include "deadlock/meter.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// What one terminal reduction sequence (Algorithm 1) did. The software
/// PDDA's meter and the DDU's cycle count are functions of these values
/// plus the geometry. Positions count within the reduced selection.
struct ReductionSummary {
  std::size_t iterations = 0;     ///< rounds that removed edges (k of xi)
  std::size_t terminal_rows = 0;  ///< terminal rows, summed over rounds
  std::size_t terminal_cols = 0;  ///< terminal columns, summed over rounds
  bool edges_remain = false;      ///< irreducible residue non-empty
  rag::ResId first_row = 0;       ///< first surviving cell in row-major
  rag::ProcId first_col = 0;      ///< order (valid when edges_remain)

  bool operator==(const ReductionSummary&) const = default;
};

/// Algorithm 1 evaluated word-parallel, in place, on a selection of a
/// state's request/grant bit-planes. A selection is a row bitset (one
/// bit per resource, (m + 63) / 64 words) and a column bitset (the
/// state's words_per_row() words); bits past the last row or column are
/// ignored. It stands for the matrix of the selected rows and columns
/// in ascending order, so ReductionSummary's first cell is its rank
/// among them. The row list starts as the selected rows in the state's
/// edge_rows(), so rows without an edge cost nothing. Per round, one
/// pass over the rows that still hold an edge computes each row's
/// terminal test and ORs the row into the column aggregates (Eqs.
/// 3-4); terminal rows leave the row list and terminal columns leave
/// the column mask, so the state itself is never written or copied.
/// When a row is one word (n <= 64) the column mask and ORs are locals
/// of the same loop instantiated for one word; wider states run it on
/// member scratch. This is the one reduction loop behind the software
/// PDDA, the DDU model, the DAU's embedded DDU and the hierarchical
/// detector's cluster units and residues. The row list and masks are
/// members reused across calls, so a warm reducer never allocates.
class TerminalReduction {
 public:
  /// Reduce every row and column of `state`.
  ReductionSummary run(const rag::StateMatrix& state);

  /// Reduce the selection `rows` x `cols` of `state`.
  ReductionSummary run(const rag::StateMatrix& state,
                       const std::uint64_t* rows, const std::uint64_t* cols);

 private:
  std::vector<std::uint64_t> all_;   // run(state): all ones
  std::vector<std::uint64_t> col_;   // n > 64: live column mask, ORs
  std::vector<std::uint32_t> live_;  // rows that still hold an edge
};

/// Serial, instrumented PDDA.
class SoftwarePdda {
 public:
  explicit SoftwarePdda(SoftwareCostModel model = {}) : model_(model) {}

  /// Run Algorithm 2 on `state`. Returns true iff deadlock exists.
  bool detect(const rag::StateMatrix& state);

  /// Run Algorithm 2 on the selection `rows` x `cols` of `state` (see
  /// TerminalReduction), metered as the popcount(rows) x popcount(cols)
  /// matrix it stands for, so bits past the last row or column must be
  /// clear.
  bool detect(const rag::StateMatrix& state, const std::uint64_t* rows,
              const std::uint64_t* cols);

  /// Counters/cost of the most recent detect() call.
  [[nodiscard]] const OpMeter& last_meter() const { return meter_; }
  [[nodiscard]] sim::Cycles last_cycles() const {
    return model_.cycles(meter_);
  }

  /// Reduction iterations performed by the last detect() (the k of xi).
  [[nodiscard]] std::size_t last_iterations() const { return iterations_; }

  [[nodiscard]] const SoftwareCostModel& cost_model() const { return model_; }

 private:
  SoftwareCostModel model_;
  OpMeter meter_;
  std::size_t iterations_ = 0;
  TerminalReduction reduce_;
};

}  // namespace delta::deadlock

// Wait-for-graph cycle detection (ROADMAP item 3c).
//
// The classic software baseline the paper lacks: collapse the bipartite
// RAG into a process-level wait-for graph (p waits on the owner of every
// resource p has requested) and trim nodes that cannot lie on a cycle —
// out-degree 0 (not waiting, can finish) or in-degree 0 (nobody waits on
// it). The residue is non-empty iff the RAG has a cycle; with
// single-unit resources a cycle is a deadlock, so the residue is the
// victim-candidate set for detection-and-recovery.
#pragma once

#include <utility>
#include <vector>

#include "deadlock/meter.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// One periodic scan's verdict.
struct WfgScan {
  bool deadlock = false;
  /// Trim residue: processes on (or between) wait-for cycles, ascending.
  /// A subset of rag::deadlocked_processes() — pure waiters blocked
  /// *behind* a cycle are trimmed here but also reduced away there.
  std::vector<rag::ProcId> deadlocked;
  /// Bookkeeping-operation count of this scan (software cost model).
  OpMeter meter;
};

/// The scan with its working set kept across calls: the wait-for edge
/// list, the degree vectors and the returned WfgScan. A warm scanner
/// allocates nothing. It builds the edges from the rows in the state's
/// edge_rows() (a held resource holds an edge), and its meter counts
/// the reference loop's owner test of all m resources.
class WfgScanner {
 public:
  /// Scan `state`. The result is a pure function of the matrix and stays
  /// valid until the next scan.
  const WfgScan& scan(const rag::StateMatrix& state);

 private:
  WfgScan scan_;
  std::vector<std::pair<rag::ProcId, rag::ProcId>> edges_;  // (waiter, holder)
  std::vector<std::size_t> outdeg_, indeg_;
};

/// Scan the current state matrix with a fresh scanner.
[[nodiscard]] WfgScan scan_wait_for_graph(const rag::StateMatrix& state);

}  // namespace delta::deadlock

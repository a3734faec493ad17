// Hierarchical (sharded) deadlock detection for large-geometry MPSoCs.
//
// The paper's DDU/DAU are monolithic m x n matrices; at 64x64 or 256x256
// a single unit stops being free (Table 1 scaling: m*n matrix cells and a
// 2*min(m,n)-3 iteration bound). Following the "Remote Control" idea for
// modular SoCs (PAPERS.md), resources AND processes are partitioned into
// C clusters: cluster c owns a contiguous block of resource rows and
// process columns and gets its own small (m_c x n_c) unit that tracks
// only *local* edges (resource and process in the same cluster). Edges
// that cross clusters ("remote" edges) are tracked by a top-level
// resolver; when an event touches a cluster with incident remote edges,
// the resolver escalates to the bit-parallel software PDDA over just the
// cross-cluster residue (the connected component of clusters).
//
// Semantics are *identical* to a monolithic unit, not approximate. The
// argument, for detection run after every edge-adding event on a
// previously deadlock-free state: any new cycle passes through the
// event's row q (cluster k). Either the cycle lies entirely within
// cluster k's rows and columns (the local unit reduces exactly the same
// submatrix a monolithic unit would reduce for those rows/columns — the
// residue of a reduction restricted to a closed component is unchanged),
// or the cycle leaves cluster k, which requires a remote edge incident to
// k — precisely the escalation trigger — and every cluster the cycle
// visits is, by walking the cycle, connected to k in the remote-edge
// cluster graph, so the escalated residue submatrix contains the whole
// cycle. Both directions hold, so the hierarchical verdict equals the
// monolithic verdict at every event; only the *cost* differs (small local
// units, occasional software residue). detect_all() extends the same
// decomposition to arbitrary states (every cluster + every multi-cluster
// component) for property tests against the monolithic oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "deadlock/meter.h"
#include "deadlock/pdda.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// Contiguous near-equal partition of m resources and n processes into C
/// clusters. Cluster sizes differ by at most one; C is clamped to
/// [1, min(m, n)] so every cluster owns at least one row and one column.
class ClusterMap {
 public:
  ClusterMap() = default;
  ClusterMap(std::size_t resources, std::size_t processes,
             std::size_t clusters);

  /// Sharding heuristic for auto-configured systems: 1 below 8 resources
  /// (the paper-scale geometries keep their monolithic unit), otherwise
  /// ~sqrt(m) clusters so local units stay ~sqrt(m) x sqrt(n).
  [[nodiscard]] static std::size_t default_clusters(std::size_t resources);

  [[nodiscard]] std::size_t clusters() const { return c_; }
  [[nodiscard]] std::size_t resources() const { return m_; }
  [[nodiscard]] std::size_t processes() const { return n_; }

  [[nodiscard]] std::size_t resource_cluster(rag::ResId s) const {
    return res_cluster_[s];
  }
  [[nodiscard]] std::size_t process_cluster(rag::ProcId t) const {
    return proc_cluster_[t];
  }
  [[nodiscard]] std::size_t resource_begin(std::size_t c) const {
    return res_begin_[c];
  }
  [[nodiscard]] std::size_t resource_count(std::size_t c) const {
    return res_begin_[c + 1] - res_begin_[c];
  }
  [[nodiscard]] std::size_t process_begin(std::size_t c) const {
    return proc_begin_[c];
  }
  [[nodiscard]] std::size_t process_count(std::size_t c) const {
    return proc_begin_[c + 1] - proc_begin_[c];
  }

  /// True when edge (s, t) lives inside one cluster's unit.
  [[nodiscard]] bool local(rag::ResId s, rag::ProcId t) const {
    return res_cluster_[s] == proc_cluster_[t];
  }

 private:
  std::size_t m_ = 0, n_ = 0, c_ = 1;
  std::vector<std::uint32_t> res_cluster_, proc_cluster_;
  std::vector<std::size_t> res_begin_, proc_begin_;  // c_+1 fenceposts
};

/// Outcome of one hierarchical detection pass. Cycle accounting follows
/// the hardware structure: cluster units evaluate in parallel (max), the
/// escalated residue runs serially in software on the invoking PE (sum).
struct HierOutcome {
  bool deadlock = false;
  bool escalated = false;  ///< the resolver invoked the software residue
  std::size_t local_units = 0;       ///< cluster units evaluated
  std::size_t local_iterations = 0;  ///< max reduction iterations per unit
  sim::Cycles local_unit_cycles = 0; ///< hw model: max(iterations, 1)
  std::size_t residue_clusters = 0;
  std::size_t residue_resources = 0;
  std::size_t residue_processes = 0;
  sim::Cycles residue_sw_cycles = 0; ///< metered bit-parallel PDDA cost
};

/// The shared hierarchical decision procedure. This is the software
/// reference the sharded hardware units (hw/sharded_ddu.h, sharded_dau.h)
/// wrap with bus/FSM accounting, so differential pairs compare one
/// semantics across monolithic-hw, sharded-hw and software backends.
class HierarchicalDetector {
 public:
  explicit HierarchicalDetector(ClusterMap map, SoftwareCostModel model = {});

  [[nodiscard]] const ClusterMap& map() const { return map_; }

  /// Detection after an event whose edge changes all lie in row `res`
  /// (request / release / tentative-probe shapes all satisfy this).
  /// Equivalent to the monolithic verdict when the pre-event state was
  /// deadlock-free (see file comment).
  HierOutcome detect_event(const rag::StateMatrix& full, rag::ResId res);

  /// Whole-state detection: every cluster unit plus the residue of every
  /// multi-cluster component. Equivalent to the monolithic verdict on
  /// *any* state — property-testable against the rag oracle.
  HierOutcome detect_all(const rag::StateMatrix& full);

 private:
  ClusterMap map_;
  SoftwarePdda pdda_;
  // Per-cluster selections of the full matrix: cluster c's rows are
  // bits [c * row_words, +row_words) of res_mask_, its columns bits
  // [c * col_words, +col_words) of proc_mask_. A cluster unit reduces
  // its selection of the caller's matrix in place, starting from the
  // selected rows that hold an edge (TerminalReduction).
  std::vector<std::uint64_t> res_mask_;
  std::vector<std::uint64_t> proc_mask_;
  // Scratch reused across calls (detection runs on every event), so a
  // warm detector never allocates: the union-find over clusters and its
  // remote-edge flags, detect_all's handled-component flags, and the
  // residue component's row and column selection.
  std::vector<std::size_t> uf_;
  std::vector<std::uint8_t> incident_;   // cluster has a remote edge
  std::vector<std::uint8_t> done_;       // detect_all: component handled
  std::vector<std::uint64_t> comp_rows_, comp_cols_;

  std::size_t find(std::size_t c);
  void unite(std::size_t a, std::size_t b);
  /// Scan remote edges, visiting only the rows in full.edge_rows():
  /// fills uf_/incident_. Returns true if any exist.
  bool scan_remote(const rag::StateMatrix& full);
  /// Local unit evaluation for one cluster; merges into `out`.
  void run_local(const rag::StateMatrix& full, std::size_t c,
                 HierOutcome& out);
  /// Software PDDA over the closed component containing cluster `k`.
  void run_residue(const rag::StateMatrix& full, std::size_t k,
                   HierOutcome& out);
};

}  // namespace delta::deadlock

#include "deadlock/wfg.h"

#include <bit>

namespace delta::deadlock {

using rag::ProcId;
using rag::ResId;

const WfgScan& WfgScanner::scan(const rag::StateMatrix& state) {
  const std::size_t m = state.resources();
  const std::size_t n = state.processes();
  OpMeter& meter = scan_.meter;
  meter.reset();

  // Build the wait-for edge list: p -> owner(q) for every request edge
  // (p, q) whose resource is held, from the held row's request bits.
  // AND-wait semantics: p can proceed only once *every* edge is gone.
  // The reference loop tests each resource's owner and, for a held one,
  // each waiter in turn; a held resource holds an edge, so the host
  // visits only the rows that do.
  edges_.clear();
  std::size_t waits = 0;
  const std::uint64_t* const rows = state.edge_rows();
  for (std::size_t j = 0; j < (m + 63) / 64; ++j)
    for (std::uint64_t r = rows[j]; r != 0; r &= r - 1) {
      const ResId s = j * 64 + static_cast<std::size_t>(std::countr_zero(r));
      const ProcId own = state.owner(s);
      if (own == rag::kNoProc) continue;
      const std::uint64_t* req = state.row_request_bits(s);
      for (std::size_t k = 0; k < state.words_per_row(); ++k)
        for (std::uint64_t b = req[k]; b != 0; b &= b - 1) {
          const ProcId w =
              k * 64 + static_cast<std::size_t>(std::countr_zero(b));
          ++waits;
          if (w != own) edges_.emplace_back(w, own);
        }
    }
  const std::size_t total = edges_.size();
  meter.loads += m + waits;
  meter.branches += m + waits;
  meter.stores += total;

  outdeg_.assign(n, 0);
  indeg_.assign(n, 0);
  for (const auto& [w, h] : edges_) {
    ++outdeg_[w];
    ++indeg_[h];
  }
  meter.loads += 2 * total;
  meter.stores += 2 * total;

  // Iteratively trim edges into a node with out-degree 0 (can finish:
  // releasing its holdings removes every edge into it) or out of a node
  // with in-degree 0 (nobody waits on it: it cannot close a cycle). The
  // reference loop sweeps every edge, dead or not; the list keeps only
  // the live ones, in order, so each sweep decides the same.
  bool progress = true;
  while (progress) {
    progress = false;
    meter.loads += 3 * total;
    meter.branches += 2 * total;
    std::size_t kept = 0;
    for (const auto& [w, h] : edges_) {
      if (outdeg_[h] != 0 && indeg_[w] != 0) {
        edges_[kept++] = {w, h};
        continue;
      }
      --outdeg_[w];
      --indeg_[h];
      progress = true;
    }
    meter.stores += 3 * (edges_.size() - kept);
    edges_.resize(kept);
  }

  scan_.deadlocked.clear();
  for (ProcId p = 0; p < n; ++p)
    if (outdeg_[p] != 0 || indeg_[p] != 0) scan_.deadlocked.push_back(p);
  meter.loads += 2 * n;
  meter.branches += n;
  scan_.deadlock = !scan_.deadlocked.empty();
  return scan_;
}

WfgScan scan_wait_for_graph(const rag::StateMatrix& state) {
  return WfgScanner().scan(state);
}

}  // namespace delta::deadlock

#include "deadlock/pdda.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace delta::deadlock {

ReductionSummary TerminalReduction::run(const rag::StateMatrix& state) {
  const std::size_t m = state.resources();
  const std::size_t w = state.words_per_row();
  req_.resize(m * w);
  gnt_.resize(m * w);
  col_or_.resize(2 * w);
  std::memcpy(req_.data(), state.row_request_bits(0), m * w * 8);
  std::memcpy(gnt_.data(), state.row_grant_bits(0), m * w * 8);
  std::uint64_t* const or_req = col_or_.data();
  std::uint64_t* const or_gnt = col_or_.data() + w;
  // Only rows that still hold an edge take part: an empty row is never
  // terminal and adds nothing to the column ORs. The list stays in
  // ascending order.
  live_.clear();
  for (std::size_t s = 0; s < m; ++s)
    for (std::size_t k = 0; k < w; ++k)
      if ((req_[s * w + k] | gnt_[s * w + k]) != 0) {
        live_.push_back(s);
        break;
      }

  ReductionSummary out;
  while (true) {
    // Eqs. 3-4 on rows and columns of the same matrix: a row is terminal
    // iff it has requests or grants but not both; column t likewise,
    // from bit t of the OR of all request rows and of all grant rows.
    // Every cell of a terminal row clears (lines 8-9 of Algorithm 1), so
    // the row simply leaves the live list; its words are never read again.
    std::fill(col_or_.begin(), col_or_.end(), 0);
    std::size_t term_rows = 0, kept = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const std::size_t s = live_[i];
      bool has_r = false, has_g = false;
      for (std::size_t k = 0; k < w; ++k) {
        const std::uint64_t r = req_[s * w + k], g = gnt_[s * w + k];
        has_r |= r != 0;
        has_g |= g != 0;
        or_req[k] |= r;
        or_gnt[k] |= g;
      }
      if (has_r != has_g) ++term_rows;
      else live_[kept++] = s;
    }
    live_.resize(kept);
    std::size_t term_cols = 0;
    for (std::size_t k = 0; k < w; ++k) {
      or_req[k] ^= or_gnt[k];  // now the terminal-column word
      term_cols += static_cast<std::size_t>(std::popcount(or_req[k]));
    }
    // Eq. 5: no terminal node left -> irreducible.
    if (term_rows == 0 && term_cols == 0) break;
    ++out.iterations;
    out.terminal_rows += term_rows;
    out.terminal_cols += term_cols;

    // Lines 8-9: terminal columns clear in the rows that stay; rows left
    // empty drop out of the live list.
    kept = 0;
    for (const std::size_t s : live_) {
      std::uint64_t left = 0;
      for (std::size_t k = 0; k < w; ++k) {
        req_[s * w + k] &= ~or_req[k];
        gnt_[s * w + k] &= ~or_req[k];
        left |= req_[s * w + k] | gnt_[s * w + k];
      }
      if (left != 0) live_[kept++] = s;
    }
    live_.resize(kept);
  }

  // Algorithm 2: deadlock iff edges remain; note the first one (the
  // live rows are exactly the non-empty ones, in ascending order).
  if (!live_.empty()) {
    const std::size_t s = live_.front();
    out.edges_remain = true;
    out.first_row = s;
    for (std::size_t k = 0; k < w; ++k) {
      const std::uint64_t word = req_[s * w + k] | gnt_[s * w + k];
      if (word == 0) continue;
      out.first_col =
          k * 64 + static_cast<std::size_t>(std::countr_zero(word));
      break;
    }
  }
  return out;
}

namespace {

// The OpMeter models the serial byte-matrix implementation a compact C
// port on the MPC755 would use (one load + compares per cell, per
// Algorithms 1/2), so its counts are defined by that reference code:
// every count below is the exact aggregate of the per-cell increments
// the straightforward implementation would make. Its scans are
// data-independent; only the round count, the terminal rows and
// columns each round clears and the final scan's stopping cell vary,
// and the reduction summary carries exactly those.
OpMeter reference_meter(std::size_t m, std::size_t n,
                        const ReductionSummary& r) {
  const std::uint64_t mn = m * n;
  // Every round scans once; the last scan finds no terminal node.
  const std::uint64_t scans = r.iterations + 1;
  const std::uint64_t cleared = n * r.terminal_rows + m * r.terminal_cols;
  // The final scan stops at the first surviving edge (row-major).
  const std::uint64_t visited =
      r.edges_remain ? r.first_row * n + r.first_col + 1 : mn;
  OpMeter o;
  // Lines 2-6 of Algorithm 2, building the working matrix from the RAG:
  // per cell one load, one store, index arithmetic and the loop test.
  o.loads = mn;
  o.stores = mn;
  o.alu = 2 * mn;
  o.branches = mn;
  // Lines 5-7 of Algorithm 1, per scan. Terminal rows: per cell one
  // load, two compares plus indexing, one loop test; per row the XOR,
  // its store and the terminal accumulation. Terminal columns: the
  // same with rows and columns swapped. Then the line-7 test.
  o.loads += scans * 2 * mn;
  o.alu += scans * (6 * mn + 2 * m + 2 * n);
  o.branches += scans * (2 * mn + m + n + 1);
  o.stores += scans * (m + n);
  // Lines 8-9, per reducing round: the terminal-flag load and test per
  // row and column; per cleared cell the store, indexing and loop test.
  o.loads += r.iterations * (m + n);
  o.branches += r.iterations * (m + n) + cleared;
  o.stores += cleared;
  o.alu += cleared;
  // Lines 8-12 of Algorithm 2: the scan for a surviving edge.
  o.loads += visited;
  o.alu += visited;
  o.branches += visited;
  return o;
}

}  // namespace

bool SoftwarePdda::detect(const rag::StateMatrix& state) {
  const ReductionSummary r = reduce_.run(state);
  iterations_ = r.iterations;
  meter_ = reference_meter(state.resources(), state.processes(), r);
  return r.edges_remain;
}

}  // namespace delta::deadlock

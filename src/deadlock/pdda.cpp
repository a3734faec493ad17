#include "deadlock/pdda.h"

#include <algorithm>
#include <bit>

namespace delta::deadlock {

namespace {

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

/// Ones in bitset `bits` of `words` words.
std::size_t popcount(const std::uint64_t* bits, std::size_t words) {
  std::size_t count = 0;
  for (std::size_t k = 0; k < words; ++k)
    count += static_cast<std::size_t>(std::popcount(bits[k]));
  return count;
}

/// Ones in bitset `bits` below bit `i`: the rank of bit i.
std::size_t rank(const std::uint64_t* bits, std::size_t i) {
  const std::uint64_t below = (std::uint64_t{1} << (i % 64)) - 1;
  return popcount(bits, i / 64) +
         static_cast<std::size_t>(std::popcount(bits[i / 64] & below));
}

/// Algorithm 1's rounds over the live rows `live[0, n_live)` and the
/// column mask `mask`, then Algorithm 2's first surviving cell. `ors`
/// is scratch for the two column ORs. W is the number of column words
/// when the compiler knows it (W = 1: one word, so the masks are
/// locals), or 0 when `words` gives it at run time.
template <std::size_t W>
ReductionSummary reduce_live(const rag::StateMatrix& state,
                             std::size_t words, const std::uint64_t* rows,
                             const std::uint64_t* cols, std::uint64_t* mask,
                             std::uint64_t* ors, std::uint32_t* live,
                             std::size_t n_live) {
  // Locals throughout: the loops store 64-bit words, which could alias
  // the state's size fields.
  const std::size_t w = W != 0 ? W : words;
  const std::uint64_t* const req0 = state.row_request_bits(0);
  const std::uint64_t* const gnt0 = state.row_grant_bits(0);
  std::uint64_t* const or_req = ors;
  std::uint64_t* const or_gnt = ors + w;
  ReductionSummary out;
  while (true) {
    // Eqs. 3-4 on rows and columns of the same matrix: a row is terminal
    // iff it has requests or grants but not both; column t likewise,
    // from bit t of the OR of all request rows and of all grant rows.
    // Every cell of a terminal row clears (lines 8-9 of Algorithm 1), so
    // the row simply leaves the live list, as does a row that holds no
    // edge in the live columns.
    std::fill(or_req, or_req + 2 * w, 0);
    std::size_t term_rows = 0, kept = 0;
    for (std::size_t i = 0; i < n_live; ++i) {
      const std::size_t s = live[i];
      std::uint64_t any_r = 0, any_g = 0;
      for (std::size_t k = 0; k < w; ++k) {
        const std::uint64_t r = req0[s * w + k] & mask[k];
        const std::uint64_t g = gnt0[s * w + k] & mask[k];
        any_r |= r;
        any_g |= g;
        or_req[k] |= r;
        or_gnt[k] |= g;
      }
      if ((any_r != 0) != (any_g != 0)) ++term_rows;
      else if (any_r != 0) live[kept++] = live[i];
    }
    n_live = kept;
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
    // Lines 8-9: terminal columns clear in every row.
    for (std::size_t k = 0; k < w; ++k) mask[k] &= ~or_req[k];
  }

  // Algorithm 2: deadlock iff edges remain; note the first one (after a
  // round the live rows are exactly the non-empty ones, in ascending
  // order) by its rank in the selection.
  if (n_live != 0) {
    const std::size_t s = live[0];
    out.edges_remain = true;
    out.first_row = rank(rows, s);
    for (std::size_t k = 0; k < w; ++k) {
      const std::uint64_t word = (req0[s * w + k] | gnt0[s * w + k]) & mask[k];
      if (word == 0) continue;
      out.first_col =
          rank(cols, k * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      break;
    }
  }
  return out;
}

}  // namespace

ReductionSummary TerminalReduction::run(const rag::StateMatrix& state) {
  const std::size_t words =
      std::max(words_for(state.resources()), state.words_per_row());
  if (all_.size() < words) all_.assign(words, ~std::uint64_t{0});
  return run(state, all_.data(), all_.data());
}

ReductionSummary TerminalReduction::run(const rag::StateMatrix& state,
                                        const std::uint64_t* rows,
                                        const std::uint64_t* cols) {
  const std::size_t m = state.resources();
  const std::size_t w = state.words_per_row();
  if (live_.size() < m) live_.resize(m);
  std::uint32_t* const live = live_.data();
  // Only selected rows that hold an edge take part: an empty row is
  // never terminal and adds nothing to the column ORs. A row whose
  // edges all lie outside the selected columns leaves in round 1. The
  // list stays in ascending order.
  const std::uint64_t* const edges = state.edge_rows();
  std::size_t n_live = 0;
  for (std::size_t j = 0; j < words_for(m); ++j)
    for (std::uint64_t b = rows[j] & edges[j]; b != 0; b &= b - 1)
      live[n_live++] = static_cast<std::uint32_t>(
          j * 64 + static_cast<std::size_t>(std::countr_zero(b)));

  if (w == 1) {
    std::uint64_t mask[1] = {cols[0]};
    std::uint64_t ors[2] = {};
    return reduce_live<1>(state, 1, rows, cols, mask, ors, live, n_live);
  }
  col_.resize(3 * w);
  std::uint64_t* const mask = col_.data();  // columns not yet reduced
  std::copy(cols, cols + w, mask);
  return reduce_live<0>(state, w, rows, cols, mask, mask + w, live, n_live);
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

bool SoftwarePdda::detect(const rag::StateMatrix& state,
                          const std::uint64_t* rows,
                          const std::uint64_t* cols) {
  const ReductionSummary r = reduce_.run(state, rows, cols);
  iterations_ = r.iterations;
  meter_ = reference_meter(popcount(rows, words_for(state.resources())),
                           popcount(cols, state.words_per_row()), r);
  return r.edges_remain;
}

}  // namespace delta::deadlock

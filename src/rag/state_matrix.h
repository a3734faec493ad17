// The system state matrix M_ij of Definition 6.
//
// Each entry alpha_st is ternary (none / request / grant) and is stored in
// two bit-planes exactly mirroring the hardware encoding of Eq. 2:
// alpha_st = (alpha^r_st, alpha^g_st) with 10 = request, 01 = grant,
// 00 = no edge. The bit-plane layout lets both the software PDDA and the
// DDU hardware model compute the row/column Bit-Wise-Or aggregates (Eq. 3)
// with word-parallel operations.
//
// The matrix also keeps the set of rows that hold at least one edge
// (edge_rows()). Every write keeps it exact: one that adds an edge sets
// its row's bit, one that clears an edge re-tests only that row. The
// deadlock probes walk this set instead of all m rows, because large
// states are sparse: on the 64x64 fuzz workload about 3 in 10 of the
// rows a reduction selects hold an edge.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rag/types.h"

namespace delta::rag {

/// m x n ternary matrix with word-parallel row/column aggregates.
class StateMatrix {
 public:
  StateMatrix() = default;

  /// Construct an all-zero matrix for `resources` rows x `processes` cols.
  StateMatrix(std::size_t resources, std::size_t processes);

  [[nodiscard]] std::size_t resources() const { return m_; }  ///< rows (m)
  [[nodiscard]] std::size_t processes() const { return n_; }  ///< cols (n)

  /// Entry accessors. They sit on every deadlock probe's path, so they
  /// are defined here, where callers can inline them.
  [[nodiscard]] Edge at(ResId s, ProcId t) const {
    const std::size_t w = word_index(s, t);
    const std::uint64_t mask = bit_mask(t);
    if (req_[w] & mask) return Edge::kRequest;
    if (gnt_[w] & mask) return Edge::kGrant;
    return Edge::kNone;
  }
  void set(ResId s, ProcId t, Edge e) {
    const std::size_t w = word_index(s, t);
    const std::uint64_t mask = bit_mask(t);
    req_[w] &= ~mask;
    gnt_[w] &= ~mask;
    if (e == Edge::kRequest) req_[w] |= mask;
    if (e == Edge::kGrant) gnt_[w] |= mask;
    if (e != Edge::kNone) edge_rows_[s / 64] |= bit_mask(s);
    else if ((req_[w] | gnt_[w]) == 0) retest_row(s);
  }
  void clear(ResId s, ProcId t) { set(s, t, Edge::kNone); }

  /// Convenience edge mutators matching the paper's vocabulary.
  void add_request(ProcId t, ResId s) { set(s, t, Edge::kRequest); }
  void add_grant(ResId s, ProcId t) { set(s, t, Edge::kGrant); }

  /// Number of non-zero entries (edges).
  [[nodiscard]] std::size_t edge_count() const;

  /// True when the matrix has no edges at all (complete reduction result).
  [[nodiscard]] bool empty() const {
    for (const std::uint64_t w : edge_rows_)
      if (w != 0) return false;
    return true;
  }

  /// Row aggregates over resource s: (any request bit, any grant bit).
  [[nodiscard]] bool row_has_request(ResId s) const {
    return any_bit(row_request_bits(s));
  }
  [[nodiscard]] bool row_has_grant(ResId s) const {
    return any_bit(row_grant_bits(s));
  }

  /// Column aggregates over process t.
  [[nodiscard]] bool col_has_request(ProcId t) const;
  [[nodiscard]] bool col_has_grant(ProcId t) const;

  /// Zero every entry in row s / column t (one reduction removal).
  void clear_row(ResId s);
  void clear_col(ProcId t);

  /// Owner of resource s (the unique grant in row s), or kNoProc.
  /// Single-unit resources: at most one grant per row is expected; if the
  /// matrix (illegally) holds several, the lowest process index is returned.
  [[nodiscard]] ProcId owner(ResId s) const {
    const std::uint64_t* gnt = row_grant_bits(s);
    for (std::size_t w = 0; w < words_; ++w)
      if (gnt[w] != 0)
        return w * 64 + static_cast<std::size_t>(std::countr_zero(gnt[w]));
    return kNoProc;
  }

  /// All resources currently granted to process t.
  [[nodiscard]] std::vector<ResId> held_by(ProcId t) const;

  /// All resources process t is waiting on.
  [[nodiscard]] std::vector<ResId> requested_by(ProcId t) const;

  /// All processes waiting on resource s.
  [[nodiscard]] std::vector<ProcId> waiters(ResId s) const;

  bool operator==(const StateMatrix& o) const = default;

  /// ASCII form mirroring Fig. 11: rows q1..qm, columns p1..pn.
  [[nodiscard]] std::string to_string() const;

  /// Raw 64-bit words of the request/grant planes for row s. The DDU model
  /// uses these to evaluate Eq. 3 word-parallel. Bits >= n are zero.
  [[nodiscard]] const std::uint64_t* row_request_bits(ResId s) const {
    assert(s < m_);
    return req_.data() + s * words_;
  }
  [[nodiscard]] const std::uint64_t* row_grant_bits(ResId s) const {
    assert(s < m_);
    return gnt_.data() + s * words_;
  }
  [[nodiscard]] std::size_t words_per_row() const { return words_; }

  /// The rows that hold at least one request or grant: a bitset of
  /// (m + 63) / 64 words, bit s for row s. Bits >= m are zero.
  [[nodiscard]] const std::uint64_t* edge_rows() const {
    return edge_rows_.data();
  }

 private:
  std::size_t m_ = 0, n_ = 0, words_ = 0;
  std::vector<std::uint64_t> req_;  // m_ * words_ bits, row-major
  std::vector<std::uint64_t> gnt_;
  std::vector<std::uint64_t> edge_rows_;

  [[nodiscard]] std::size_t word_index(ResId s, ProcId t) const {
    assert(s < m_ && t < n_);
    return s * words_ + t / 64;
  }
  [[nodiscard]] static std::uint64_t bit_mask(ProcId t) {
    return std::uint64_t{1} << (t % 64);
  }
  [[nodiscard]] bool any_bit(const std::uint64_t* row) const {
    for (std::size_t w = 0; w < words_; ++w)
      if (row[w] != 0) return true;
    return false;
  }
  /// After a write cleared an edge of row s: drop s from edge_rows() if
  /// the row holds no edge any more.
  void retest_row(ResId s) {
    if (!row_has_request(s) && !row_has_grant(s))
      edge_rows_[s / 64] &= ~bit_mask(s);
  }
};

std::ostream& operator<<(std::ostream& os, const StateMatrix& m);

}  // namespace delta::rag

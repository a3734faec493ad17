#include "rag/state_matrix.h"

#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace delta::rag {

StateMatrix::StateMatrix(std::size_t resources, std::size_t processes)
    : m_(resources), n_(processes), words_((processes + 63) / 64) {
  if (resources == 0 || processes == 0)
    throw std::invalid_argument("StateMatrix: dimensions must be positive");
  req_.assign(m_ * words_, 0);
  gnt_.assign(m_ * words_, 0);
  edge_rows_.assign((m_ + 63) / 64, 0);
}

std::size_t StateMatrix::edge_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < req_.size(); ++i)
    count += static_cast<std::size_t>(std::popcount(req_[i])) +
             static_cast<std::size_t>(std::popcount(gnt_[i]));
  return count;
}

bool StateMatrix::col_has_request(ProcId t) const {
  const std::uint64_t mask = bit_mask(t);
  const std::size_t w = t / 64;
  for (ResId s = 0; s < m_; ++s)
    if (req_[s * words_ + w] & mask) return true;
  return false;
}

bool StateMatrix::col_has_grant(ProcId t) const {
  const std::uint64_t mask = bit_mask(t);
  const std::size_t w = t / 64;
  for (ResId s = 0; s < m_; ++s)
    if (gnt_[s * words_ + w] & mask) return true;
  return false;
}

void StateMatrix::clear_row(ResId s) {
  assert(s < m_);
  for (std::size_t w = 0; w < words_; ++w) {
    req_[s * words_ + w] = 0;
    gnt_[s * words_ + w] = 0;
  }
  edge_rows_[s / 64] &= ~bit_mask(s);
}

void StateMatrix::clear_col(ProcId t) {
  assert(t < n_);
  const std::uint64_t mask = ~bit_mask(t);
  const std::size_t w = t / 64;
  // Only rows that hold an edge can hold one in column t.
  for (std::size_t j = 0; j < edge_rows_.size(); ++j)
    for (std::uint64_t b = edge_rows_[j]; b != 0; b &= b - 1) {
      const ResId s = j * 64 + static_cast<std::size_t>(std::countr_zero(b));
      req_[s * words_ + w] &= mask;
      gnt_[s * words_ + w] &= mask;
      if ((req_[s * words_ + w] | gnt_[s * words_ + w]) == 0) retest_row(s);
    }
}

std::vector<ResId> StateMatrix::held_by(ProcId t) const {
  std::vector<ResId> out;
  for (ResId s = 0; s < m_; ++s)
    if (at(s, t) == Edge::kGrant) out.push_back(s);
  return out;
}

std::vector<ResId> StateMatrix::requested_by(ProcId t) const {
  std::vector<ResId> out;
  for (ResId s = 0; s < m_; ++s)
    if (at(s, t) == Edge::kRequest) out.push_back(s);
  return out;
}

std::vector<ProcId> StateMatrix::waiters(ResId s) const {
  std::vector<ProcId> out;
  for (ProcId t = 0; t < n_; ++t)
    if (at(s, t) == Edge::kRequest) out.push_back(t);
  return out;
}

std::string StateMatrix::to_string() const {
  std::ostringstream os;
  os << "      ";
  for (ProcId t = 0; t < n_; ++t) os << 'p' << (t + 1) % 10 << ' ';
  os << '\n';
  for (ResId s = 0; s < m_; ++s) {
    os << "  q" << (s + 1) % 10 << "  ";
    for (ProcId t = 0; t < n_; ++t) os << edge_char(at(s, t)) << "  ";
    os << '\n';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const StateMatrix& m) {
  return os << m.to_string();
}

}  // namespace delta::rag

#include "deadlock/bankers.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace delta::deadlock {

using rag::Edge;
using rag::ProcId;
using rag::ResId;

namespace {

std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << (i % 64); }

/// Set bits [0, count) of `bits`, clear the rest.
void fill_ones(std::vector<std::uint64_t>& bits, std::size_t count) {
  std::fill(bits.begin(), bits.end(), ~std::uint64_t{0});
  if (count % 64 != 0) bits.back() = bit(count) - 1;
}

}  // namespace

BankersEngine::BankersEngine(std::size_t resources, std::size_t processes)
    : state_(resources, processes),
      words_((resources + 63) / 64),
      proc_words_((processes + 63) / 64),
      claims_(processes * words_, 0),
      priority_(processes, 0),
      held_(processes * words_, 0),
      free_(words_),
      freed_(words_),
      running_(proc_words_),
      open_(words_) {
  fill_ones(free_, resources);
  // Default priorities: p1 highest, i.e. priority == index (DaaEngine).
  for (ProcId p = 0; p < processes; ++p) {
    priority_[p] = static_cast<int>(p);
    declare_claims(p, {});
  }
}

void BankersEngine::declare_claims(ProcId p, const std::vector<ResId>& rs) {
  // Check every id before writing, so a rejected declaration leaves the
  // one it would have replaced intact.
  const std::size_t m = state_.resources();
  if (p >= state_.processes())
    throw std::out_of_range("BankersEngine::declare_claims: process id");
  for (ResId q : rs)
    if (q >= m)
      throw std::out_of_range("BankersEngine::declare_claims: resource id");
  std::uint64_t* claim = &claims_[p * words_];
  std::fill(claim, claim + words_, 0);
  if (rs.empty())
    for (ResId q = 0; q < m; ++q) claim[q / 64] |= bit(q);
  for (ResId q : rs) claim[q / 64] |= bit(q);
}

void BankersEngine::set_priority(ProcId p, int priority) {
  priority_.at(p) = priority;
}

bool BankersEngine::claimed(ProcId p, ResId q) const {
  return (claims_[p * words_ + q / 64] & bit(q)) != 0;
}

void BankersEngine::grant(ResId q, ProcId p) {
  state_.add_grant(q, p);
  held_[p * words_ + q / 64] |= bit(q);
  free_[q / 64] &= ~bit(q);
}

void BankersEngine::ungrant(ResId q, ProcId p) {
  state_.clear(q, p);
  held_[p * words_ + q / 64] &= ~bit(q);
  free_[q / 64] |= bit(q);
}

// The meter counts what the reference serial check does: per resource
// one load and store to initialise `freed`; per process tested in a
// sweep, a done-flag load and test, then per resource visited three
// loads (claim, cell, freed) and two tests until the first claimed
// resource that is neither held nor free (or all m), and the can-finish
// test; per finishing process a store, then one load and test per
// resource and one store per resource it releases. The host evaluates
// the same decisions on resource bitsets, starting from the holdings
// and free set grant() and ungrant() keep, and tests only the processes
// that have not finished.
bool BankersEngine::is_safe() {
  // Locals throughout: the loop stores 64-bit words, which could alias
  // the sizes and meter fields it reads.
  const std::size_t m = state_.resources();
  const std::size_t n = state_.processes();
  const std::size_t words = words_;
  const std::uint64_t* const claims = claims_.data();
  const std::uint64_t* const holdings = held_.data();
  std::uint64_t* const freed = freed_.data();
  std::uint64_t* const running = running_.data();
  std::copy(free_.begin(), free_.end(), freed);
  std::uint64_t loads = m, stores = m, branches = 0;
  // A process can finish if every *claimed but not yet held* resource is
  // currently free; finishing releases its holdings. Safe iff all finish.
  fill_ones(running_, n);
  bool progress = true;
  while (progress) {
    progress = false;
    // The reference sweep loads and tests every process's done flag.
    loads += n;
    branches += n;
    for (std::size_t j = 0; j < proc_words_; ++j)
      for (std::uint64_t b = running[j]; b != 0; b &= b - 1) {
        const ProcId t = j * 64 + std::countr_zero(b);
        const std::uint64_t* claim = claims + t * words;
        const std::uint64_t* held = holdings + t * words;
        bool blocked = false;
        std::size_t visited = m;
        for (std::size_t k = 0; k < words && !blocked; ++k) {
          const std::uint64_t need = claim[k] & ~held[k] & ~freed[k];
          if (need == 0) continue;
          blocked = true;
          visited = k * 64 + std::countr_zero(need) + 1;
        }
        loads += 3 * visited;
        branches += 2 * visited + 1;
        if (blocked) continue;
        running[j] &= ~bit(t);
        progress = true;
        std::size_t released = 0;
        for (std::size_t k = 0; k < words; ++k) {
          freed[k] |= held[k];
          released += static_cast<std::size_t>(std::popcount(held[k]));
        }
        loads += m;
        branches += m;
        stores += 1 + released;
      }
  }
  meter_.loads += loads;
  meter_.stores += stores;
  meter_.branches += branches;
  return std::all_of(running_.begin(), running_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

BankersEngine::Result BankersEngine::request(ProcId p, ResId q) {
  meter_.reset();
  Result res;

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.at(q, p) != Edge::kNone) {
    // Duplicate request / already the owner: malformed, refuse quietly.
    res.outcome = Outcome::kRefusedBusy;
    return res;
  }

  // An undeclared request widens the claim set on the fly. Classic
  // Banker's rejects it as a protocol error; a kernel has to stay live,
  // and widening is the conservative recovery (every safety decision
  // already made stays valid for the *current* grants — future probes
  // just see the larger claim).
  meter_.loads += 1;
  meter_.branches += 1;
  if (!claimed(p, q)) {
    claims_[p * words_ + q / 64] |= bit(q);
    meter_.stores += 1;
  }

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.owner(q) != rag::kNoProc) {
    state_.add_request(p, q);
    meter_.stores += 1;
    res.outcome = Outcome::kRefusedBusy;
    return res;
  }

  // Free: tentatively grant and probe safety. Queued waiters on a free
  // resource were all refused-unsafe at the last arbitration and nothing
  // has been released since, so they cannot have become grantable; only
  // the newcomer needs a probe.
  grant(q, p);
  meter_.stores += 1;
  meter_.branches += 1;
  if (force_unsafe_ || is_safe()) {
    res.outcome = Outcome::kGranted;
    return res;
  }
  ungrant(q, p);
  state_.add_request(p, q);
  meter_.stores += 2;
  ++unsafe_refusals_;
  res.outcome = Outcome::kRefusedUnsafe;
  res.unsafe_refusal = true;
  return res;
}

BankersEngine::Result BankersEngine::release(ProcId p, ResId q) {
  meter_.reset();
  Result res;

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.at(q, p) != Edge::kGrant) return res;  // not the owner

  ungrant(q, p);
  meter_.stores += 1;
  drain(res);
  return res;
}

void BankersEngine::drain(Result& res) {
  // Grant arbitration to a fixpoint: a committed grant can make another
  // waiter's probe succeed (its safe sequence may need the new grantee
  // to finish first), so sweep until a full pass commits nothing.
  const std::size_t m = state_.resources();
  const std::size_t n = state_.processes();
  bool committed = true;
  while (committed) {
    committed = false;
    // The reference sweep tests every resource's owner and scans the
    // column of each free one for waiters. A commit makes only its own
    // resource busy, so the resources free at the sweep's start are the
    // ones it visits, and a free one holds an edge exactly when it has
    // waiters, so only those need a visit on the host.
    const std::uint64_t* const edges = state_.edge_rows();
    std::size_t free_count = 0;
    for (std::size_t j = 0; j < words_; ++j) {
      free_count += static_cast<std::size_t>(std::popcount(free_[j]));
      open_[j] = free_[j] & edges[j];
    }
    meter_.loads += m + free_count * n;
    meter_.branches += m + free_count * n;
    for (std::size_t j = 0; j < words_; ++j)
      for (std::uint64_t open = open_[j]; open != 0; open &= open - 1) {
        const ResId s = j * 64 + std::countr_zero(open);
        waiters_.clear();
        const std::uint64_t* req = state_.row_request_bits(s);
        for (std::size_t k = 0; k < state_.words_per_row(); ++k)
          for (std::uint64_t b = req[k]; b != 0; b &= b - 1)
            waiters_.push_back(k * 64 + std::countr_zero(b));
        // Stable by priority (smaller value = higher priority): the
        // waiters were collected in process order, so breaking ties on
        // the index gives the stable order without a merge buffer.
        std::sort(waiters_.begin(), waiters_.end(),
                  [this](ProcId a, ProcId b) {
                    return priority_[a] != priority_[b]
                               ? priority_[a] < priority_[b]
                               : a < b;
                  });
        meter_.alu += 2 * waiters_.size();
        meter_.loads += 2 * waiters_.size();
        for (ProcId cand : waiters_) {
          grant(s, cand);
          meter_.stores += 2;
          meter_.branches += 1;
          if (is_safe()) {
            res.grants.emplace_back(cand, s);
            committed = true;
            break;  // resource now busy
          }
          ungrant(s, cand);
          state_.add_request(cand, s);
          meter_.stores += 2;
          ++unsafe_refusals_;
          res.unsafe_refusal = true;
        }
      }
  }
}

void BankersEngine::cancel_request(ProcId p, ResId q) {
  if (state_.at(q, p) == Edge::kRequest) state_.clear(q, p);
}

}  // namespace delta::deadlock

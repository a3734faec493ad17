#include "deadlock/daa.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "rag/reduction.h"

namespace delta::deadlock {

using rag::Edge;
using rag::ProcId;
using rag::ResId;

DaaEngine::DaaEngine(std::size_t resources, std::size_t processes,
                     DetectFn detect, DaaPolicy policy)
    : state_(resources, processes),
      priority_(processes, 0),
      detect_(std::move(detect)),
      policy_(policy) {
  if (!detect_) throw std::invalid_argument("DaaEngine: null detect hook");
  // Default priorities: p1 highest (paper §5.3), i.e. priority == index.
  for (ProcId p = 0; p < processes; ++p) priority_[p] = static_cast<int>(p);
}

void DaaEngine::set_priority(ProcId p, int priority) {
  priority_.at(p) = priority;
}

bool DaaEngine::run_detect() {
  ++detect_calls_;
  return detect_(state_);
}

const std::vector<ProcId>& DaaEngine::waiters_by_priority(ResId q) {
  waiters_.clear();
  const std::uint64_t* req = state_.row_request_bits(q);
  for (std::size_t k = 0; k < state_.words_per_row(); ++k)
    for (std::uint64_t b = req[k]; b != 0; b &= b - 1)
      waiters_.push_back(k * 64 + std::countr_zero(b));
  meter_.loads += state_.processes();  // scan request column entries
  meter_.branches += state_.processes();
  // Smaller value = higher priority. The waiters were collected in id
  // order, so breaking ties on the id gives the stable order without a
  // merge buffer.
  std::sort(waiters_.begin(), waiters_.end(), [this](ProcId a, ProcId b) {
    return priority_[a] != priority_[b] ? priority_[a] < priority_[b]
                                        : a < b;
  });
  meter_.alu += 2 * waiters_.size();  // sort compare/swap work
  meter_.loads += 2 * waiters_.size();
  return waiters_;
}

RequestResult DaaEngine::request(ProcId p, ResId q) {
  meter_.reset();
  detect_calls_ = 0;
  RequestResult res;

  meter_.loads += 2;  // fetch entry + owner word
  meter_.branches += 2;
  if (state_.at(q, p) != Edge::kNone) return res;  // duplicate/self request

  const ProcId own = state_.owner(q);
  meter_.loads += 1;
  meter_.branches += 1;
  if (own == rag::kNoProc) {
    meter_.loads += 1;
    meter_.branches += 1;
    if (!state_.row_has_request(q)) {
      // Line 3-4: available (free, nobody queued) -> grant immediately.
      state_.add_grant(q, p);
      meter_.stores += 1;
      res.outcome = RequestOutcome::kGranted;
      return res;
    }
    // Free but with queued waiters: this only happens after a livelock
    // resolution left the resource idle. Granting out of order here could
    // close a cycle through the queued request edges, so join the queue
    // and run the same grant arbitration a release would.
    state_.add_request(p, q);
    meter_.stores += 1;
    const ReleaseResult arb = arbitrate(q);
    res.g_dl = arb.g_dl;
    res.livelock = arb.outcome == ReleaseOutcome::kLivelockResolved;
    res.grantee = arb.grantee;
    if (arb.grantee == p) {
      res.outcome = RequestOutcome::kGranted;
    } else {
      res.outcome = RequestOutcome::kPending;
      res.asked = arb.asked;
      res.asked_resources = arb.asked_resources;
    }
    return res;
  }

  // Line 5: tentatively record the request and test for R-dl.
  state_.add_request(p, q);
  meter_.stores += 1;
  const bool r_dl = run_detect();
  meter_.branches += 1;
  if (!r_dl) {
    // Line 13: safe -> pending.
    res.outcome = RequestOutcome::kPending;
    return res;
  }

  res.r_dl = true;

  // Variant policies (§4.3.1's rejected alternatives).
  if (policy_ == DaaPolicy::kDenyOnRdl) {
    // Reject the request outright: remove the tentative edge; the
    // requester must retry (the livelock hazard Belik's method shares).
    state_.clear(q, p);
    meter_.stores += 1;
    res.outcome = RequestOutcome::kDenied;
    return res;
  }
  if (policy_ == DaaPolicy::kRequesterYields) {
    res.outcome = RequestOutcome::kGiveUpAsked;
    res.asked = p;
    res.asked_resources = state_.held_by(p);
    meter_.loads += state_.resources();
    meter_.branches += state_.resources();
    return res;
  }

  meter_.loads += 2;  // priorities
  meter_.alu += 1;
  meter_.branches += 1;
  if (priority_[p] < priority_[own]) {
    // Lines 6-8: requester wins -> keep pending, ask owner to release q.
    res.outcome = RequestOutcome::kOwnerAsked;
    res.asked = own;
    res.asked_resources = {q};
    return res;
  }

  // Lines 9-10: owner wins -> requester must give up what it holds. The
  // pending request stays registered; giving up the held resources breaks
  // every cycle through p (all of p's grant edges disappear).
  res.outcome = RequestOutcome::kGiveUpAsked;
  res.asked = p;
  res.asked_resources = state_.held_by(p);
  meter_.loads += state_.resources();
  meter_.branches += state_.resources();
  return res;
}

ReleaseResult DaaEngine::release(ProcId p, ResId q) {
  meter_.reset();
  detect_calls_ = 0;
  ReleaseResult res;

  meter_.loads += 1;
  meter_.branches += 1;
  if (state_.at(q, p) != Edge::kGrant) return res;  // not the owner

  state_.clear(q, p);
  meter_.stores += 1;

  meter_.branches += 1;
  if (!state_.row_has_request(q)) {
    // Line 24: no waiters -> available.
    res.outcome = ReleaseOutcome::kIdle;
    return res;
  }
  return arbitrate(q);
}

ReleaseResult DaaEngine::retry_grant(ResId q) {
  meter_.reset();
  detect_calls_ = 0;
  ReleaseResult res;
  if (state_.owner(q) != rag::kNoProc || !state_.row_has_request(q)) {
    res.outcome = ReleaseOutcome::kError;
    return res;
  }
  return arbitrate(q);
}

ReleaseResult DaaEngine::arbitrate(ResId q) {
  ReleaseResult res;
  const std::vector<ProcId>& waiting = waiters_by_priority(q);

  // Lines 17-22: try the highest-priority waiter first; on G-dl walk down
  // the priority order (line 19: "grant to a lower priority process").
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    const ProcId w = waiting[i];
    // Temporary grant on the internal matrix.
    state_.clear(q, w);
    state_.add_grant(q, w);
    meter_.stores += 2;
    const bool g_dl = run_detect();
    meter_.branches += 1;
    if (!g_dl) {
      res.outcome = i == 0 ? ReleaseOutcome::kGrantedHighest
                           : ReleaseOutcome::kGrantedLower;
      res.g_dl = i != 0;
      res.grantee = w;
      return res;
    }
    res.g_dl = true;
    // Undo the temporary grant; restore the pending request.
    state_.clear(q, w);
    state_.add_request(w, q);
    meter_.stores += 2;
  }

  // Every candidate grant closes a cycle: the waiters are starving while
  // the resource sits free — the livelock situation of Definition 2. Ask
  // the lowest-priority process that holds anything among the processes
  // that would deadlock, so its give-up breaks the blocking chains. This
  // is the DAU's livelock breaker (§4.1).
  // Identify the blocking cycle by probing the representative grant (to
  // the highest-priority waiter) and collecting the deadlocked processes.
  const ProcId w0 = waiting.front();
  state_.clear(q, w0);
  state_.add_grant(q, w0);
  const std::vector<ProcId> involved = rag::deadlocked_processes(state_);
  state_.clear(q, w0);
  state_.add_request(w0, q);
  meter_.stores += 4;

  ProcId victim = rag::kNoProc;
  for (ProcId cand : involved) {
    meter_.loads += 2;
    meter_.branches += 2;
    if (!state_.col_has_grant(cand)) continue;
    if (victim == rag::kNoProc || priority_[cand] > priority_[victim])
      victim = cand;
  }
  res.outcome = ReleaseOutcome::kLivelockResolved;
  if (victim != rag::kNoProc) {
    res.asked = victim;
    res.asked_resources = state_.held_by(victim);
  }
  return res;
}

void DaaEngine::cancel_request(ProcId p, ResId q) {
  if (state_.at(q, p) == Edge::kRequest) state_.clear(q, p);
}

}  // namespace delta::deadlock

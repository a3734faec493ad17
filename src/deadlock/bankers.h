// Runtime Banker's-algorithm avoidance engine (ROADMAP item 3a).
//
// Unlike the bench-time `Banker` baseline (avoidance_baselines.h), this
// engine is kernel-drivable: a refused request parks the requester on a
// request edge (block-and-retry instead of caller-side spinning), and a
// release re-runs grant arbitration over *all* free resources so parked
// waiters are handed their grants as soon as the state allows. Claims
// are per-process maximum-claims declarations; a process with no
// declared claims conservatively claims every resource.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "deadlock/meter.h"
#include "rag/state_matrix.h"

namespace delta::deadlock {

/// Single-unit-resource Banker's algorithm with blocked-waiter queues.
class BankersEngine {
 public:
  BankersEngine(std::size_t resources, std::size_t processes);

  /// Declare the full claim set of process p (every resource it may ever
  /// request). Replaces any previous declaration; an empty `rs` restores
  /// the conservative claim-everything default. An out-of-range id throws
  /// std::out_of_range and leaves the previous declaration in place.
  void declare_claims(rag::ProcId p, const std::vector<rag::ResId>& rs);

  /// Smaller value == higher priority (matches DaaEngine).
  void set_priority(rag::ProcId p, int priority);

  enum class Outcome : std::uint8_t {
    kGranted,        ///< free, claimed, and the post-grant state is safe
    kRefusedBusy,    ///< held by someone else: requester queues
    kRefusedUnsafe,  ///< free but granting would make the state unsafe:
                     ///< requester queues until a release changes the state
  };

  /// Result of request()/release(): the requester's outcome plus any
  /// grants handed to *other* (previously parked) waiters.
  struct Result {
    Outcome outcome = Outcome::kGranted;
    std::vector<std::pair<rag::ProcId, rag::ResId>> grants;
    bool unsafe_refusal = false;  ///< a safety probe refused someone
  };

  /// Process p requests resource q. A refusal records the request edge;
  /// the caller should block p until a later release grants it (surfaced
  /// through Result::grants).
  Result request(rag::ProcId p, rag::ResId q);

  /// Process p releases resource q, then grant arbitration runs to a
  /// fixpoint over every free resource with waiters (in resource order,
  /// waiters in priority order), committing every safe grant.
  Result release(rag::ProcId p, rag::ResId q);

  /// Cancel a pending request (process gave up waiting / was aborted).
  void cancel_request(rag::ProcId p, rag::ResId q);

  /// Safety check of the current allocation (exposed for tests). Request
  /// edges never affect safety: only grants consume availability.
  [[nodiscard]] bool is_safe();

  [[nodiscard]] rag::ProcId owner(rag::ResId q) const {
    return state_.owner(q);
  }
  [[nodiscard]] const rag::StateMatrix& state() const { return state_; }

  /// Bookkeeping-operation meter for the most recent event (includes
  /// every safety probe the event ran).
  [[nodiscard]] const OpMeter& last_meter() const { return meter_; }

  [[nodiscard]] std::uint64_t unsafe_refusals() const {
    return unsafe_refusals_;
  }

  /// Fault injection: skip the safety probe on request (grant anything
  /// free). Models a broken Banker implementation for the differential
  /// campaign.
  void force_unsafe_grants(bool on) { force_unsafe_ = on; }

 private:
  rag::StateMatrix state_;  // grants = holdings, requests = parked waiters
  std::size_t words_;       // 64-bit words per resource bitset
  std::size_t proc_words_;  // 64-bit words per process bitset
  // Claims of process p: resource bitset words [p * words_, +words_).
  // No declaration (claim everything) is the all-ones set.
  std::vector<std::uint64_t> claims_;
  std::vector<int> priority_;
  OpMeter meter_;
  bool force_unsafe_ = false;
  std::uint64_t unsafe_refusals_ = 0;
  // Kept up to date with the grant plane by grant() and ungrant(), the
  // only code that adds or clears a grant: the resources each process
  // holds (bitset words [p * words_, +words_)) and the resources nobody
  // holds.
  std::vector<std::uint64_t> held_;
  std::vector<std::uint64_t> free_;
  // Scratch reused across calls, so a warm probe never allocates.
  std::vector<std::uint64_t> freed_;   // is_safe(): free in the check
  std::vector<std::uint64_t> running_; // is_safe(): processes not finished
  std::vector<std::uint64_t> open_;    // drain(): free with waiters
  std::vector<rag::ProcId> waiters_;   // drain(): one resource's waiters

  [[nodiscard]] bool claimed(rag::ProcId p, rag::ResId q) const;
  /// Record q's grant to p, or clear it.
  void grant(rag::ResId q, rag::ProcId p);
  void ungrant(rag::ResId q, rag::ProcId p);
  /// Grant every safe (resource, waiter) pair until no more commit.
  /// Each sweep visits the free resources in the state's edge_rows(),
  /// which are the free ones with waiters; its meter counts the
  /// reference sweep over all m resources.
  void drain(Result& res);
};

}  // namespace delta::deadlock

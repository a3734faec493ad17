#include "deadlock/daa.h"

#include <gtest/gtest.h>

#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta::deadlock {
namespace {

using rag::Edge;
using rag::ProcId;
using rag::ResId;
using rag::StateMatrix;

DaaEngine make_engine(std::size_t m = 5, std::size_t n = 5) {
  return DaaEngine(m, n,
                   [](const StateMatrix& s) { return rag::has_deadlock(s); });
}

TEST(DaaEngine, GrantsFreeResource) {
  DaaEngine e = make_engine();
  const RequestResult r = e.request(0, 0);
  EXPECT_EQ(r.outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.owner(0), 0u);
}

TEST(DaaEngine, DuplicateRequestIsError) {
  DaaEngine e = make_engine();
  e.request(0, 0);
  EXPECT_EQ(e.request(0, 0).outcome, RequestOutcome::kError);
}

TEST(DaaEngine, BusyResourceGoesPending) {
  DaaEngine e = make_engine();
  e.request(0, 0);
  const RequestResult r = e.request(1, 0);
  EXPECT_EQ(r.outcome, RequestOutcome::kPending);
  EXPECT_FALSE(r.r_dl);
  EXPECT_TRUE(e.is_pending(1, 0));
}

TEST(DaaEngine, ReleaseWithNoWaitersIdles) {
  DaaEngine e = make_engine();
  e.request(0, 0);
  const ReleaseResult r = e.release(0, 0);
  EXPECT_EQ(r.outcome, ReleaseOutcome::kIdle);
  EXPECT_EQ(e.owner(0), rag::kNoProc);
}

TEST(DaaEngine, ReleaseByNonOwnerIsError) {
  DaaEngine e = make_engine();
  e.request(0, 0);
  EXPECT_EQ(e.release(1, 0).outcome, ReleaseOutcome::kError);
}

TEST(DaaEngine, ReleaseGrantsHighestPriorityWaiter) {
  DaaEngine e = make_engine();
  e.request(3, 0);            // p3 owns q0
  e.request(2, 0);            // waiters: p2 (higher), p4
  e.request(4, 0);
  const ReleaseResult r = e.release(3, 0);
  EXPECT_EQ(r.outcome, ReleaseOutcome::kGrantedHighest);
  EXPECT_EQ(r.grantee, 2u);
  EXPECT_EQ(e.owner(0), 2u);
  EXPECT_TRUE(e.is_pending(4, 0));
}

// Paper §5.4.1 / Table 6: the grant-deadlock scenario. q2(IDCT) released
// by p1 would normally go to higher-priority p2 but that deadlocks, so
// the DAU grants it to p3 instead.
TEST(DaaEngine, GrantDeadlockAvoidedByGrantingLowerPriority) {
  DaaEngine e = make_engine(5, 5);
  // Use paper indices minus one: p1..p4 -> 0..3, q1..q4 -> 0..3.
  EXPECT_EQ(e.request(0, 0).outcome, RequestOutcome::kGranted);  // t1
  EXPECT_EQ(e.request(0, 1).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.request(2, 1).outcome, RequestOutcome::kPending);  // t2
  EXPECT_EQ(e.request(2, 3).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.request(1, 1).outcome, RequestOutcome::kPending);  // t3
  EXPECT_EQ(e.request(1, 3).outcome, RequestOutcome::kPending);
  EXPECT_EQ(e.release(0, 0).outcome, ReleaseOutcome::kIdle);     // t4
  const ReleaseResult r = e.release(0, 1);                       // t5
  EXPECT_EQ(r.outcome, ReleaseOutcome::kGrantedLower);
  EXPECT_TRUE(r.g_dl);
  EXPECT_EQ(r.grantee, 2u);  // p3, not the higher-priority p2
  EXPECT_EQ(e.owner(1), 2u);
  // After p3 finishes, p2 gets both resources (t6-t7).
  EXPECT_EQ(e.release(2, 1).grantee, 1u);
  EXPECT_EQ(e.release(2, 3).grantee, 1u);
  // No deadlock at any point, p2 can finish: system drains.
  EXPECT_EQ(e.release(1, 1).outcome, ReleaseOutcome::kIdle);
  EXPECT_EQ(e.release(1, 3).outcome, ReleaseOutcome::kIdle);
  EXPECT_TRUE(e.state().empty());
}

// Paper §5.4.3 / Table 8: the request-deadlock scenario. p1 requesting q2
// closes a 3-cycle; p1 has the highest priority so the owner p2 is asked
// to give up q2.
TEST(DaaEngine, RequestDeadlockAsksOwnerWhenRequesterWins) {
  DaaEngine e = make_engine(5, 5);
  EXPECT_EQ(e.request(0, 0).outcome, RequestOutcome::kGranted);  // t1
  EXPECT_EQ(e.request(1, 1).outcome, RequestOutcome::kGranted);  // t2
  EXPECT_EQ(e.request(2, 2).outcome, RequestOutcome::kGranted);  // t3
  EXPECT_EQ(e.request(1, 2).outcome, RequestOutcome::kPending);  // t4
  EXPECT_EQ(e.request(2, 0).outcome, RequestOutcome::kPending);  // t5
  const RequestResult r = e.request(0, 1);                       // t6
  EXPECT_EQ(r.outcome, RequestOutcome::kOwnerAsked);
  EXPECT_TRUE(r.r_dl);
  EXPECT_EQ(r.asked, 1u);                      // p2 asked to give up q2
  EXPECT_EQ(r.asked_resources, (std::vector<ResId>{1}));
  // p2 complies; q2 must go to p1 (highest-priority waiter, no G-dl).
  const ReleaseResult rel = e.release(1, 1);   // t7
  EXPECT_EQ(rel.grantee, 0u);
  EXPECT_EQ(e.owner(1), 0u);
}

TEST(DaaEngine, RequestDeadlockAsksRequesterWhenOwnerWins) {
  DaaEngine e = make_engine(5, 5);
  // p0 (highest) owns q1; p3 (lowest) owns q0 and requests q1 -> cycle
  // would form via p0's request of q0... build explicitly:
  EXPECT_EQ(e.request(0, 1).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.request(3, 0).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.request(0, 0).outcome, RequestOutcome::kPending);
  // Now p3 requests q1 (owned by higher-priority p0): closes the cycle
  // p3 -> q1 -> p0 -> q0 -> p3, and the owner out-prioritizes p3.
  const RequestResult r = e.request(3, 1);
  EXPECT_EQ(r.outcome, RequestOutcome::kGiveUpAsked);
  EXPECT_TRUE(r.r_dl);
  EXPECT_EQ(r.asked, 3u);
  EXPECT_EQ(r.asked_resources, (std::vector<ResId>{0}));
  // p3 complies: releases q0, which unblocks p0.
  const ReleaseResult rel = e.release(3, 0);
  EXPECT_EQ(rel.grantee, 0u);
}

// Equal-priority waiters are arbitrated in process-id order, whatever
// order they queued in, on a plain hand-off and on a G-dl walk-down.
// Pins every grantee and the bookkeeping meter of each release.
TEST(DaaEngine, TiedPrioritiesArbitrateInIdOrder) {
  DaaEngine e = make_engine(6, 6);
  for (ProcId p : {1u, 2u, 3u}) e.set_priority(p, 3);
  e.set_priority(4, 9);
  auto meter = [&e] {
    const OpMeter& m = e.last_meter();
    return std::vector<std::uint64_t>{m.loads, m.stores, m.alu, m.branches};
  };
  // Plain hand-off: p3, p1, p2 queue on q0 behind p0.
  EXPECT_EQ(e.request(0, 0).outcome, RequestOutcome::kGranted);
  for (ProcId p : {3u, 1u, 2u})
    EXPECT_EQ(e.request(p, 0).outcome, RequestOutcome::kPending);
  const std::vector<std::vector<std::uint64_t>> handoff_meters = {
      {13, 3, 6, 9}, {11, 3, 4, 9}, {9, 3, 2, 9}};
  for (ProcId owner = 0; owner < 3; ++owner) {
    const ReleaseResult r = e.release(owner, 0);
    EXPECT_EQ(r.outcome, ReleaseOutcome::kGrantedHighest);
    EXPECT_EQ(r.grantee, owner + 1);
    EXPECT_EQ(meter(), handoff_meters[owner]) << "release by p" << owner;
  }
  EXPECT_EQ(e.release(3, 0).outcome, ReleaseOutcome::kIdle);

  // G-dl walk-down: p4 holds q3 and waits on q1, p1 waits on q3, so
  // handing q1 to p1 closes p1 -> q3 -> p4 -> q1 -> p1. p1's tied peers
  // take q1 in id order before the lower-priority p4.
  EXPECT_EQ(e.request(0, 1).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.request(4, 3).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(e.request(1, 3).outcome, RequestOutcome::kPending);
  for (ProcId p : {4u, 3u, 1u, 2u})
    EXPECT_EQ(e.request(p, 1).outcome, RequestOutcome::kPending);
  const std::vector<std::vector<std::uint64_t>> walk_meters = {
      {15, 7, 8, 10}, {13, 7, 6, 10}, {11, 7, 4, 10}};
  const ProcId owners[] = {0, 2, 3};
  const ProcId grantees[] = {2, 3, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    const ReleaseResult r = e.release(owners[i], 1);
    EXPECT_EQ(r.outcome, ReleaseOutcome::kGrantedLower);
    EXPECT_TRUE(r.g_dl);
    EXPECT_EQ(r.grantee, grantees[i]);
    EXPECT_EQ(e.last_detect_calls(), 2u);  // p1 refused, then a grant
    EXPECT_EQ(meter(), walk_meters[i]) << "release by p" << owners[i];
  }
  // p4 finishes; p1 takes q3, then q1.
  EXPECT_EQ(e.release(4, 3).grantee, 1u);
  EXPECT_EQ(e.release(4, 1).grantee, 1u);
  EXPECT_EQ(e.release(1, 3).outcome, ReleaseOutcome::kIdle);
  EXPECT_EQ(e.release(1, 1).outcome, ReleaseOutcome::kIdle);
  EXPECT_TRUE(e.state().empty());
}

TEST(DaaEngine, CancelRequestRemovesEdge) {
  DaaEngine e = make_engine();
  e.request(0, 0);
  e.request(1, 0);
  e.cancel_request(1, 0);
  EXPECT_FALSE(e.is_pending(1, 0));
  EXPECT_EQ(e.release(0, 0).outcome, ReleaseOutcome::kIdle);
}

TEST(DaaEngine, MeterAndProbesTracked) {
  DaaEngine e = make_engine();
  e.request(0, 0);
  EXPECT_EQ(e.last_detect_calls(), 0u);  // free grant needs no probe
  e.request(1, 0);
  EXPECT_EQ(e.last_detect_calls(), 1u);  // R-dl probe
  EXPECT_GT(e.last_meter().total(), 0u);
}

// Safety property: no interleaving of DAA-mediated requests/releases ever
// leaves the tracked state deadlocked.
class DaaSafetyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DaaSafetyTest, StateNeverDeadlocked) {
  sim::Rng rng(GetParam());
  const std::size_t m = 4, n = 4;
  DaaEngine e = make_engine(m, n);
  // Random stream of request/release events with give-up compliance.
  // A give-up ask from a *release* (livelock breaker) is complied with at
  // one level deep; further nested asks add no grants so safety holds.
  const auto comply = [&e](rag::ProcId asked, const std::vector<ResId>& rs) {
    for (ResId give : rs) e.release(asked, give);
  };
  for (int step = 0; step < 400; ++step) {
    const ProcId p = rng.below(n);
    const bool do_release = rng.chance(0.4);
    if (do_release) {
      const auto held = e.state().held_by(p);
      if (held.empty()) continue;
      const ReleaseResult r = e.release(p, held[rng.below(held.size())]);
      if (r.outcome == ReleaseOutcome::kLivelockResolved &&
          r.asked != rag::kNoProc) {
        comply(r.asked, r.asked_resources);
      }
    } else {
      const ResId q = rng.below(m);
      if (e.state().at(q, p) != Edge::kNone) continue;
      const RequestResult r = e.request(p, q);
      if ((r.outcome == RequestOutcome::kGiveUpAsked ||
           r.outcome == RequestOutcome::kOwnerAsked ||
           r.livelock) &&
          r.asked != rag::kNoProc) {
        comply(r.asked, r.asked_resources);
      }
    }
    ASSERT_FALSE(rag::oracle_has_cycle(e.state()))
        << "step " << step << "\n"
        << e.state().to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DaaSafetyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace delta::deadlock

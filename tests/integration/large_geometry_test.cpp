// Large-geometry coverage: systems beyond 64 processes exercise the
// multi-word bit-plane paths of the state matrix and the DDU.
#include <gtest/gtest.h>

#include "deadlock/baselines.h"
#include "hw/dau.h"
#include "hw/ddu.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta {
namespace {

TEST(LargeGeometry, WorstCase100x100) {
  const rag::StateMatrix s = rag::worst_case_state(100, 100);
  const rag::ReductionResult r = rag::reduce(s);
  EXPECT_EQ(r.steps, 196u);  // 2*(100-2)
  EXPECT_FALSE(r.complete);
  const hw::DduResult d = hw::Ddu::evaluate(s);
  EXPECT_TRUE(d.deadlock);
  EXPECT_EQ(d.iterations, 196u);
  EXPECT_LE(d.cycles, 2 * 100 - 3 + 1);
}

TEST(LargeGeometry, RandomStatesAgreeWithOracle) {
  sim::Rng rng(4242);
  for (int i = 0; i < 10; ++i) {
    const rag::StateMatrix s = rag::random_state(96, 130, rng, 0.5, 0.02);
    EXPECT_EQ(hw::Ddu::evaluate(s).deadlock, rag::oracle_has_cycle(s));
    EXPECT_EQ(deadlock::detect_holt(s).deadlock, rag::oracle_has_cycle(s));
  }
}

TEST(LargeGeometry, ChainAcrossWordBoundaryReduces) {
  // A 130-long chain spans three 64-bit words of each row.
  const rag::StateMatrix s = rag::chain_state(130, 130);
  EXPECT_TRUE(rag::reduce(s).complete);
  EXPECT_FALSE(hw::Ddu::evaluate(s).deadlock);
}

TEST(LargeGeometry, DauOnA64x64System) {
  hw::Dau dau(64, 64);
  sim::Rng rng(11);
  for (int step = 0; step < 1500; ++step) {
    const rag::ProcId p = rng.below(64);
    const rag::ResId q = rng.below(64);
    if (rng.chance(0.45)) {
      if (dau.state().at(q, p) == rag::Edge::kGrant) dau.release(p, q);
    } else if (dau.state().at(q, p) == rag::Edge::kNone) {
      const deadlock::RequestResult r = dau.request(p, q);
      for (rag::ResId give : r.asked_resources) dau.release(r.asked, give);
    }
    ASSERT_FALSE(rag::oracle_has_cycle(dau.state())) << "step " << step;
    ASSERT_LE(dau.last_cycles(), dau.worst_case_cycles());
  }
}

TEST(LargeGeometry, DauRetryGrantCommand) {
  hw::Dau dau(5, 5);
  // Manufacture a livelock-idle resource: p1 and p2 cross-hold/wait so
  // neither can take q0 when p0 releases it.
  dau.request(1, 1);
  dau.request(2, 2);
  dau.request(0, 0);
  dau.request(1, 0);  // p1 waits q0
  dau.request(2, 0);  // p2 waits q0
  dau.request(1, 2);  // p1 also waits q2 (held by p2)
  dau.request(2, 1);  // p2 also waits q1 (held by p1) -- R-dl ask fires
  // Regardless of the ask outcome above, exercise retry on a free
  // resource with waiters after a release.
  const deadlock::ReleaseResult rel = dau.release(0, 0);
  if (rel.outcome == deadlock::ReleaseOutcome::kLivelockResolved) {
    // Victim complies, then the give-up-complete command re-arbitrates
    // the still-idle q0.
    for (rag::ResId give : rel.asked_resources) dau.release(rel.asked, give);
    EXPECT_NE(dau.retry_grant(0).outcome, deadlock::ReleaseOutcome::kError);
  }
  EXPECT_FALSE(rag::oracle_has_cycle(dau.state()));
  // retry_grant on an owned or waiter-free resource reports an error.
  EXPECT_EQ(dau.retry_grant(4), deadlock::ReleaseResult{});
}

}  // namespace
}  // namespace delta

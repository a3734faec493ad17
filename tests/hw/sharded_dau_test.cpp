// Sharded DAU: every command's result must equal the monolithic DAU's on
// the same stream (the decision engine is the same Algorithm 3; only the
// probe cost model differs).
#include <gtest/gtest.h>

#include "hw/dau.h"
#include "hw/sharded_dau.h"
#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::hw {
namespace {

using deadlock::RequestOutcome;
using deadlock::RequestResult;

TEST(ShardedDau, LockstepWithMonolithicDauAt64x64) {
  Dau mono(64, 64);
  ShardedDau shard(64, 64, 8);
  sim::Rng rng(11);  // same stream shape as LargeGeometry.DauOnA64x64System
  std::size_t escalated_commands = 0;
  for (int step = 0; step < 1500; ++step) {
    const rag::ProcId p = rng.below(64);
    const rag::ResId q = rng.below(64);
    if (rng.chance(0.45)) {
      if (mono.state().at(q, p) == rag::Edge::kGrant) {
        ASSERT_EQ(mono.release(p, q), shard.release(p, q)) << "step " << step;
      }
    } else if (mono.state().at(q, p) == rag::Edge::kNone) {
      const RequestResult r = mono.request(p, q);
      ASSERT_EQ(r, shard.request(p, q)) << "step " << step;
      for (rag::ResId give : r.asked_resources) {
        ASSERT_EQ(mono.release(r.asked, give), shard.release(r.asked, give))
            << "step " << step;
      }
    }
    ASSERT_TRUE(mono.state() == shard.state()) << "step " << step;
    ASSERT_FALSE(rag::oracle_has_cycle(shard.state())) << "step " << step;
    ASSERT_LE(shard.last_cycles(), shard.worst_case_cycles());
    escalated_commands += shard.last_escalations() > 0 ? 1 : 0;
  }
  // Cross-cluster traffic at 64x64 C=8 must exercise the resolver path.
  EXPECT_GT(escalated_commands, 0u);
}

TEST(ShardedDau, WorstCaseUnitCyclesBeatMonolithic) {
  const Dau mono(64, 64);
  const ShardedDau shard(64, 64, 8);
  EXPECT_LT(shard.worst_case_cycles(), mono.worst_case_cycles());
}

TEST(ShardedDau, GrantFaultInjectionMirrorsDau) {
  ShardedDau shard(8, 8, 2);
  shard.inject_grant_fault(true);
  EXPECT_TRUE(shard.grant_fault());
  // Build the two-process cross wait that the fault would mis-grant.
  EXPECT_EQ(shard.request(0, 0).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(shard.request(1, 1).outcome, RequestOutcome::kGranted);
  EXPECT_EQ(shard.request(1, 0).outcome, RequestOutcome::kPending);
  // With the fault masking detection the crossing request pends with no
  // give-up ask, leaving a cycle the oracle can see — the same unsafe
  // shape Dau::inject_grant_fault produces.
  EXPECT_EQ(shard.request(0, 1),
            (RequestResult{.outcome = RequestOutcome::kPending,
                           .asked_resources = {}}));
  EXPECT_TRUE(rag::oracle_has_cycle(shard.state()));
}

}  // namespace
}  // namespace delta::hw

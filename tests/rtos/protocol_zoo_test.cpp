// Protocol zoo at the kernel level: the runtime Banker's avoidance
// strategy and the periodic wait-for-graph detection-and-recovery
// backend (ROADMAP item 3), driven through the shared World fixture.
//
// The crossed-request shape used throughout: task a takes q0 then wants
// q1, task b takes q1 then wants q0 — a guaranteed cycle under the
// unconditional grant policy, refused before it forms under Banker's,
// and found-then-broken by the periodic scan under WFG recovery.
#include <gtest/gtest.h>

#include "rag/oracle.h"
#include "support/world.h"

namespace delta::rtos {
namespace {

using tests::World;
using tests::WorldConfig;

Program crossed(ResourceId first, ResourceId second) {
  Program p;
  p.request({first}).compute(2000).request({second}).compute(500).release(
      {first, second});
  return p;
}

WorldConfig zoo_config(DeadlockComponent kind) {
  WorldConfig wc;
  wc.deadlock = kind;
  wc.pe_count = 2;
  wc.resource_count = 2;
  wc.max_tasks = 2;
  return wc;
}

TEST(ProtocolZoo, BankersRefusesTheCrossedGrantAndFinishes) {
  WorldConfig wc = zoo_config(DeadlockComponent::kBankers);
  wc.claims = {{0, 1}, {1, 0}};  // both tasks may end up holding both
  World w(wc);
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_FALSE(w.k().deadlock_detected());
  EXPECT_FALSE(w.k().halted());
  ASSERT_NE(w.k().strategy().state(), nullptr);
  EXPECT_TRUE(w.k().strategy().state()->empty());
}

TEST(ProtocolZoo, SameShapeDeadlocksWithoutAvoidance) {
  // Control: the unconditional grant policy walks into the cycle the
  // Banker's run above refused.
  World w(zoo_config(DeadlockComponent::kPddaSoftware));
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  EXPECT_TRUE(w.k().deadlock_detected());
  EXPECT_FALSE(w.k().all_finished());
}

TEST(ProtocolZoo, BankersClaimAllSerializesButStaysLive) {
  // No claims table: every task implicitly claims everything, so the
  // first holder must be assumed able to ask for the other resource.
  // The crossed grant is refused and the system still drains.
  World w(zoo_config(DeadlockComponent::kBankers));
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_FALSE(w.k().deadlock_detected());
}

TEST(ProtocolZoo, WfgScanFindsAndRecoversTheCycle) {
  WorldConfig wc = zoo_config(DeadlockComponent::kWfgRecovery);
  wc.detection_period = 5000;
  wc.recovery = RecoveryPolicy::kAbortLowestCost;
  wc.stop_on_deadlock = false;
  World w(wc);
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  EXPECT_TRUE(w.k().deadlock_detected());
  EXPECT_GE(w.k().recoveries(), 1u);
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_FALSE(w.k().halted());
  ASSERT_NE(w.k().strategy().state(), nullptr);
  EXPECT_TRUE(w.k().strategy().state()->empty());
}

TEST(ProtocolZoo, WfgWithoutRecoveryHaltsOnDetection) {
  WorldConfig wc = zoo_config(DeadlockComponent::kWfgRecovery);
  wc.detection_period = 5000;
  World w(wc);  // stop_on_deadlock stays true, recovery kNone
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  EXPECT_TRUE(w.k().deadlock_detected());
  EXPECT_TRUE(w.k().halted());
  EXPECT_FALSE(w.k().all_finished());
  ASSERT_NE(w.k().strategy().state(), nullptr);
  EXPECT_TRUE(rag::oracle_has_cycle(*w.k().strategy().state()));
}

TEST(ProtocolZoo, WfgDetectionWaitsForThePeriod) {
  // Unlike the per-event detectors, nothing is detected before the
  // first scan fires: the detection timestamp is a scan tick.
  WorldConfig wc = zoo_config(DeadlockComponent::kWfgRecovery);
  wc.detection_period = 40000;
  World w(wc);
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  ASSERT_TRUE(w.k().deadlock_detected());
  EXPECT_GE(w.k().deadlock_time(), 40000u);
}

TEST(ProtocolZoo, LowestCostPolicyAbortsTheCheaperTask) {
  // Task b has completed more ops when the scan fires (extra computes
  // before its first request), so lowest-cost must abort a, not b.
  WorldConfig wc = zoo_config(DeadlockComponent::kWfgRecovery);
  wc.detection_period = 5000;
  wc.recovery = RecoveryPolicy::kAbortLowestCost;
  wc.stop_on_deadlock = false;
  World w(wc);
  Program b;
  b.compute(100).compute(100).compute(100);
  b.request({1}).compute(2000).request({0}).compute(500).release({1, 0});
  const TaskId a_id = w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  const TaskId b_id = w.k().create_task("b", 1, 2, std::move(b), 0);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_GE(w.k().restarts(a_id), 1u);
  EXPECT_EQ(w.k().restarts(b_id), 0u);
}

TEST(ProtocolZoo, RecoveryRotatesVictimsInsteadOfStarving) {
  // Regression for the victim-selection livelock: three tasks contend
  // over two resources so the cycle re-forms after each restart. A
  // lowest-cost policy that ignores prior rollbacks re-picks the
  // freshly restarted task (pc back at 0) at every scan and the task
  // whose release would break the knot is never chosen; with rollback
  // count dominating the cost the victims rotate and the system drains.
  WorldConfig wc;
  wc.deadlock = DeadlockComponent::kWfgRecovery;
  wc.pe_count = 2;
  wc.resource_count = 2;
  wc.max_tasks = 4;
  wc.detection_period = 5000;
  wc.recovery = RecoveryPolicy::kAbortLowestCost;
  wc.stop_on_deadlock = false;
  World w(wc);
  Program t0;
  t0.request({1}).compute(300).release({1});
  Program t1;
  t1.request({1}).compute(300).request({0}).compute(300).release({1, 0});
  Program t3;
  t3.request({0, 1}).compute(300).release({0, 1});
  Program t4;
  t4.request({0}).compute(300).request({1}).compute(300).release({0, 1});
  w.k().create_task("t0", 0, 1, std::move(t0), 0);
  w.k().create_task("t1", 1, 2, std::move(t1), 0);
  w.k().create_task("t3", 0, 4, std::move(t3), 0);
  w.k().create_task("t4", 1, 5, std::move(t4), 0);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_FALSE(w.k().halted());
  // A handful of rotations at most — not one recovery per scan tick.
  EXPECT_LE(w.k().recoveries(), 8u);
}

TEST(ProtocolZoo, BankersUnsafeGrantFaultWalksIntoDeadlock) {
  // The fault used by the differential campaign: with safety probes
  // forced to pass, the Banker-managed kernel deadlocks exactly like
  // the unmanaged one — but reports nothing (avoidance never detects).
  WorldConfig wc = zoo_config(DeadlockComponent::kBankers);
  wc.claims = {{0, 1}, {1, 0}};
  World w(wc);
  ASSERT_TRUE(w.k().strategy().enable_fault("bankers-unsafe-grant"));
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run();
  EXPECT_FALSE(w.k().all_finished());
  ASSERT_NE(w.k().strategy().state(), nullptr);
  EXPECT_TRUE(rag::oracle_has_cycle(*w.k().strategy().state()));
}

TEST(ProtocolZoo, WfgMissCycleFaultNeverDetects) {
  WorldConfig wc = zoo_config(DeadlockComponent::kWfgRecovery);
  wc.detection_period = 5000;
  wc.recovery = RecoveryPolicy::kAbortLowestCost;
  wc.stop_on_deadlock = false;
  World w(wc);
  ASSERT_TRUE(w.k().strategy().enable_fault("wfg-miss-cycle"));
  w.k().create_task("a", 0, 1, crossed(0, 1), 0);
  w.k().create_task("b", 1, 2, crossed(1, 0), 0);
  w.run(2'000'000);
  EXPECT_FALSE(w.k().deadlock_detected());
  EXPECT_EQ(w.k().recoveries(), 0u);
  EXPECT_FALSE(w.k().all_finished());  // the deadlock stands, unseen
}

}  // namespace
}  // namespace delta::rtos

// Deadlock recovery (paper §3.3.1: "deadlock detection usually requires
// a recovery once a deadlock is detected"). With a RecoveryPolicy set,
// the kernel aborts a deadlocked victim, force-releases its resources,
// and restarts it — turning the detection configurations into
// self-healing systems instead of halting measurement rigs.
#include <gtest/gtest.h>

#include "apps/deadlock_apps.h"
#include "rag/oracle.h"
#include "soc/delta_framework.h"

namespace delta::rtos {
namespace {

soc::Mpsoc make_soc(RecoveryPolicy policy, int preset = 2) {
  soc::MpsocConfig mc = soc::rtos_preset(soc::rtos_preset_from_int(preset)).to_mpsoc_config();
  mc.recovery = policy;
  mc.stop_on_deadlock = true;  // recovery overrides the halt
  return soc::Mpsoc(mc);
}

TEST(Recovery, JiniAppSurvivesWithRecovery) {
  soc::Mpsoc soc = make_soc(RecoveryPolicy::kAbortLowestPriority);
  apps::build_jini_app(soc);
  soc.run(5'000'000);
  Kernel& k = soc.kernel();
  EXPECT_TRUE(k.deadlock_detected());       // the deadlock still happened
  EXPECT_TRUE(k.all_finished());            // but the system recovered
  EXPECT_GE(k.recoveries(), 1u);
  EXPECT_FALSE(k.halted());
}

TEST(Recovery, LowestPriorityPolicyPicksP3) {
  // The Table 4 cycle involves p2 (prio 2) and p3 (prio 3): the lowest
  // priority participant is p3.
  soc::Mpsoc soc = make_soc(RecoveryPolicy::kAbortLowestPriority);
  apps::build_jini_app(soc);
  soc.run(5'000'000);
  Kernel& k = soc.kernel();
  EXPECT_GE(k.restarts(2), 1u);  // task id 2 == p3
  EXPECT_EQ(k.restarts(0), 0u);  // p1 untouched
  EXPECT_EQ(k.restarts(1), 0u);  // p2 kept its grant
}

TEST(Recovery, VictimReleasesBreakTheCycle) {
  soc::Mpsoc soc = make_soc(RecoveryPolicy::kAbortLowestPriority);
  apps::build_jini_app(soc);
  soc.run(5'000'000);
  ASSERT_NE(soc.kernel().strategy().state(), nullptr);
  EXPECT_FALSE(rag::oracle_has_cycle(*soc.kernel().strategy().state()));
  EXPECT_TRUE(soc.kernel().strategy().state()->empty());  // all drained
}

TEST(Recovery, WorksWithSoftwareDetectionToo) {
  soc::Mpsoc soc = make_soc(RecoveryPolicy::kAbortLowestPriority, 1);
  apps::build_jini_app(soc);
  soc.run(8'000'000);
  EXPECT_TRUE(soc.kernel().all_finished());
  EXPECT_GE(soc.kernel().recoveries(), 1u);
}

TEST(Recovery, YoungestPolicyPicksLatestRelease) {
  // In the Jini app the cycle members are p2 and p3; both release at 0,
  // so "youngest" falls back to the first participant ordering. Exercise
  // the policy with distinct release times instead.
  soc::MpsocConfig mc = soc::rtos_preset(soc::RtosPreset::kRtos2).to_mpsoc_config();
  mc.recovery = RecoveryPolicy::kAbortYoungest;
  soc::Mpsoc soc(mc);
  Kernel& k = soc.kernel();
  // Two tasks, crossing requests -> guaranteed cycle at the 4th event.
  Program a;
  a.request({0}).compute(2000).request({1}).compute(500).release({0, 1});
  Program b;
  b.request({1}).compute(500).request({0}).compute(500).release({0, 1});
  k.create_task("a", 0, 1, std::move(a), /*release=*/0);
  const TaskId bid = k.create_task("b", 1, 2, std::move(b), /*release=*/10);
  soc.run(5'000'000);
  EXPECT_TRUE(k.all_finished());
  EXPECT_GE(k.restarts(bid), 1u);  // b released later -> the victim
}

TEST(Recovery, RestartReexecutesProgramFromTop) {
  soc::MpsocConfig mc = soc::rtos_preset(soc::RtosPreset::kRtos2).to_mpsoc_config();
  mc.recovery = RecoveryPolicy::kAbortLowestPriority;
  soc::Mpsoc soc(mc);
  Kernel& k = soc.kernel();
  int runs_of_b_prefix = 0;
  Program a;
  a.request({0}).compute(2000).request({1}).compute(200).release({0, 1});
  Program b;
  b.call([&](Kernel&, Task&) { ++runs_of_b_prefix; })
      .request({1})
      .compute(300)
      .request({0})
      .compute(200)
      .release({0, 1});
  k.create_task("a", 0, 1, std::move(a));
  k.create_task("b", 1, 2, std::move(b), 10);
  soc.run(5'000'000);
  EXPECT_TRUE(k.all_finished());
  EXPECT_GE(runs_of_b_prefix, 2);  // prefix re-ran after the abort
}

TEST(Recovery, VictimsLockIsHandedToItsWaiter) {
  // The victim holds a lock a third task is blocked on. Recovery must
  // hand that lock to the waiter, which then finishes before the
  // restarted victim can take the lock back.
  soc::MpsocConfig mc = soc::rtos_preset(soc::RtosPreset::kRtos2).to_mpsoc_config();
  mc.recovery = RecoveryPolicy::kAbortLowestPriority;
  soc::Mpsoc soc(mc);
  Kernel& k = soc.kernel();
  Program a;
  a.request({0}).compute(2000).request({1}).compute(200).release({0, 1});
  Program b;
  b.lock(0)
      .request({1})
      .compute(300)
      .request({0})
      .compute(200)
      .release({0, 1})
      .unlock(0);
  Program c;
  c.compute(100).lock(0).compute(100).unlock(0);
  k.create_task("a", 0, 1, std::move(a));
  const TaskId bid = k.create_task("b", 1, 3, std::move(b), 10);
  const TaskId cid = k.create_task("c", 2, 2, std::move(c));
  soc.run(5'000'000);
  EXPECT_GE(k.restarts(bid), 1u);  // b is the cycle's lowest priority
  EXPECT_EQ(k.restarts(cid), 0u);
  EXPECT_TRUE(k.all_finished());
  EXPECT_LT(k.task(cid).finished_at, k.task(bid).finished_at);
  EXPECT_GE(k.lock_delay().count(), 1u);  // c's wait ended in a hand-off
}

TEST(Recovery, NoRecoveryWithoutDeadlock) {
  soc::Mpsoc soc = make_soc(RecoveryPolicy::kAbortLowestPriority);
  Program p;
  p.request({0}).compute(100).release({0});
  soc.kernel().create_task("t", 0, 1, std::move(p));
  soc.run();
  EXPECT_EQ(soc.kernel().recoveries(), 0u);
  EXPECT_TRUE(soc.kernel().all_finished());
}

}  // namespace
}  // namespace delta::rtos

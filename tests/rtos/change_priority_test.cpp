// Runtime priority manipulation.
#include <gtest/gtest.h>

#include "rtos/kernel.h"

namespace delta::rtos {
namespace {

struct World {
  sim::Simulator sim;
  bus::SharedBus bus{5};
  std::unique_ptr<Kernel> kernel;

  World() {
    KernelConfig cfg;
    kernel = std::make_unique<Kernel>(
        sim, bus, cfg,
        make_strategy(DeadlockComponent::kDaaSoftware, 4, 8, cfg.costs),
        std::make_unique<SoftwarePiLockBackend>(8, cfg.costs),
        std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20, cfg.costs));
  }
  Kernel& k() { return *kernel; }
};

TEST(ChangePriority, PromotedReadyTaskPreempts) {
  World w;
  Program a;
  a.compute(5000);
  Program b;
  b.compute(500);
  const TaskId a_id = w.k().create_task("a", 0, 2, std::move(a));
  const TaskId b_id = w.k().create_task("b", 0, 5, std::move(b));
  w.k().start();
  w.sim.run(1000);
  // b is ready behind a; promoting b above a must preempt a.
  w.k().change_priority(b_id, 1);
  w.sim.run(10'000'000);
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_GE(w.k().task(a_id).preemptions, 1u);
  EXPECT_LT(w.k().task(b_id).finished_at, w.k().task(a_id).finished_at);
}

TEST(ChangePriority, DemotionYieldsAtNextBoundary) {
  World w;
  Program a;
  a.compute(2000).compute(2000);
  Program b;
  b.compute(800);
  const TaskId a_id = w.k().create_task("a", 0, 1, std::move(a));
  const TaskId b_id = w.k().create_task("b", 0, 3, std::move(b));
  w.k().start();
  w.sim.run(500);
  w.k().change_priority(a_id, 9);  // demote the running task
  w.sim.run(10'000'000);
  EXPECT_TRUE(w.k().all_finished());
  // b overtook a at a's first preemption point.
  EXPECT_LT(w.k().task(b_id).finished_at, w.k().task(a_id).finished_at);
}

TEST(ChangePriority, StrategyArbitrationFollowsNewPriorities) {
  World w;
  // p0 owns q0; p1 and p2 wait. Demote p1 below p2 before the release.
  Program owner;
  owner.request({0}).compute(3000).release({0});
  Program w1;
  w1.compute(100).request({0}).release({0});
  Program w2;
  w2.compute(100).request({0}).release({0});
  w.k().create_task("owner", 0, 1, std::move(owner));
  const TaskId p1 = w.k().create_task("w1", 1, 2, std::move(w1));
  const TaskId p2 = w.k().create_task("w2", 2, 3, std::move(w2));
  w.k().start();
  w.sim.run(2000);
  w.k().change_priority(p1, 8);  // now below p2
  w.sim.run(10'000'000);
  EXPECT_TRUE(w.k().all_finished());
  // p2 got the resource first: finished earlier.
  EXPECT_LT(w.k().task(p2).finished_at, w.k().task(p1).finished_at);
}

TEST(ChangePriority, TraceRecordsTheChange) {
  World w;
  Program p;
  p.compute(100);
  const TaskId id = w.k().create_task("t", 0, 5, std::move(p));
  w.k().change_priority(id, 2);
  w.k().start();
  w.sim.run(10'000);
  EXPECT_FALSE(
      w.sim.trace().matching("priority changed to 2").empty());
  EXPECT_EQ(w.k().task(id).base_priority, 2);
}

}  // namespace
}  // namespace delta::rtos

// Kernel scheduling, preemption, priority inheritance / IPCP, resource
// blocking and task management.
#include "rtos/kernel.h"

#include <gtest/gtest.h>

#include "rag/oracle.h"
#include "support/phases.h"

namespace delta::rtos {
namespace {

struct World {
  sim::Simulator sim;
  bus::SharedBus bus{5};
  std::unique_ptr<Kernel> kernel;

  explicit World(KernelConfig cfg = {}, bool soclc = false,
                 std::vector<Priority> ceilings = {}) {
    const ServiceCosts costs = cfg.costs;
    auto strategy = make_strategy(DeadlockComponent::kDaaSoftware,
                                  cfg.resource_count, cfg.max_tasks, costs);
    std::unique_ptr<LockBackend> locks;
    if (soclc) {
      hw::SoclcConfig sc;
      sc.short_locks = 4;
      sc.long_locks = 4;
      locks = std::make_unique<SoclcLockBackend>(sc, costs, ceilings);
    } else {
      locks = std::make_unique<SoftwarePiLockBackend>(8, costs);
    }
    auto mem = std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20, costs);
    kernel = std::make_unique<Kernel>(sim, bus, cfg, std::move(strategy),
                                      std::move(locks), std::move(mem));
  }

  Kernel& k() { return *kernel; }
  void run() {
    kernel->start();
    sim.run(10'000'000);
  }
};

TEST(Kernel, RejectsBadConstruction) {
  sim::Simulator sim;
  bus::SharedBus bus(2);
  KernelConfig cfg;
  cfg.pe_count = 0;
  EXPECT_THROW(Kernel(sim, bus, cfg,
                      make_strategy(DeadlockComponent::kNone, 4, 4, {}),
                      std::make_unique<SoftwarePiLockBackend>(4, ServiceCosts{}),
                      std::make_unique<SoftwareHeapBackend>(0, 4096,
                                                            ServiceCosts{})),
               std::invalid_argument);
}

TEST(Kernel, SingleTaskComputesAndFinishes) {
  World w;
  Program p;
  p.compute(1000);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  const Task& t = w.k().task(id);
  EXPECT_TRUE(t.done());
  EXPECT_TRUE(w.k().all_finished());
  // Finish time = context switch + compute.
  EXPECT_EQ(t.finished_at, w.k().config().costs.context_switch + 1000);
}

TEST(Kernel, ReleaseTimeDelaysStart) {
  World w;
  Program p;
  p.compute(100);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p), 5000);
  w.run();
  EXPECT_EQ(w.k().task(id).started_at, 5000u);
  EXPECT_GE(w.k().task(id).finished_at, 5100u);
}

TEST(Kernel, HigherPriorityPreempts) {
  World w;
  Program lo;
  lo.compute(10000);
  Program hi;
  hi.compute(500);
  const TaskId lo_id = w.k().create_task("lo", 0, 5, std::move(lo), 0);
  const TaskId hi_id = w.k().create_task("hi", 0, 1, std::move(hi), 2000);
  w.run();
  const Task& l = w.k().task(lo_id);
  const Task& h = w.k().task(hi_id);
  EXPECT_TRUE(l.done() && h.done());
  EXPECT_GE(l.preemptions, 1u);
  EXPECT_LT(h.finished_at, l.finished_at);
  // hi runs to completion promptly after arrival.
  EXPECT_LT(h.finished_at, 3000u);
  // lo loses exactly the hi window (plus switches).
  EXPECT_GT(l.finished_at, 10500u);
}

TEST(Kernel, EqualPriorityDoesNotPreempt) {
  World w;
  Program a;
  a.compute(3000);
  Program b;
  b.compute(300);
  const TaskId a_id = w.k().create_task("a", 0, 2, std::move(a), 0);
  const TaskId b_id = w.k().create_task("b", 0, 2, std::move(b), 100);
  w.run();
  EXPECT_EQ(w.k().task(a_id).preemptions, 0u);
  EXPECT_GT(w.k().task(b_id).finished_at, w.k().task(a_id).finished_at);
}

TEST(Kernel, TasksOnDifferentPesRunInParallel) {
  World w;
  Program a;
  a.compute(5000);
  Program b;
  b.compute(5000);
  const TaskId a_id = w.k().create_task("a", 0, 1, std::move(a));
  const TaskId b_id = w.k().create_task("b", 1, 1, std::move(b));
  w.run();
  // Both finish around the same time: true parallelism.
  const auto fa = w.k().task(a_id).finished_at;
  const auto fb = w.k().task(b_id).finished_at;
  EXPECT_EQ(fa, fb);
  EXPECT_LT(fa, 6000u);
}

TEST(Kernel, RoundRobinTimeSlicing) {
  KernelConfig cfg;
  cfg.time_slice = 500;
  World w(cfg);
  Program a;
  a.compute(3000);
  Program b;
  b.compute(3000);
  const TaskId a_id = w.k().create_task("a", 0, 2, std::move(a));
  const TaskId b_id = w.k().create_task("b", 0, 2, std::move(b));
  w.run();
  // Both ran interleaved: each was sliced out at least twice.
  EXPECT_GE(w.k().task(a_id).preemptions, 2u);
  EXPECT_GE(w.k().task(b_id).preemptions, 2u);
  // And they finish close together (fair sharing), not serially.
  const auto fa = w.k().task(a_id).finished_at;
  const auto fb = w.k().task(b_id).finished_at;
  EXPECT_LT(fa > fb ? fa - fb : fb - fa, 1500u);
}

TEST(Kernel, SuspendAndResume) {
  World w;
  Program p;
  p.compute(1000);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.k().start();
  w.sim.run(500);
  w.k().suspend(id);
  w.sim.run(5000);
  EXPECT_EQ(w.k().task(id).state, TaskState::kSuspended);
  w.k().resume(id);
  w.sim.run(100'000);
  EXPECT_TRUE(w.k().task(id).done());
  // The suspension gap shows in the finish time.
  EXPECT_GT(w.k().task(id).finished_at, 5000u);
}

TEST(Kernel, ResourceBlockingAndWakeup) {
  World w;
  Program p1;
  p1.request({0}).compute(2000).release({0});
  Program p2;
  p2.compute(100).request({0}).compute(500).release({0});
  const TaskId id1 = w.k().create_task("p1", 0, 1, std::move(p1));
  const TaskId id2 = w.k().create_task("p2", 1, 2, std::move(p2));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // p2 had to wait for p1's release.
  EXPECT_GT(tests::blocked_cycles(w.k(), id2), 1000u);
  EXPECT_GT(w.k().task(id2).finished_at, w.k().task(id1).finished_at);
}

TEST(Kernel, MultiResourceRequestBlocksUntilAll) {
  World w;
  Program holder;
  holder.request({1}).compute(3000).release({1});
  Program wants_both;
  wants_both.compute(100).request({0, 1}).compute(100).release({0, 1});
  w.k().create_task("holder", 0, 1, std::move(holder));
  const TaskId id = w.k().create_task("both", 1, 2, std::move(wants_both));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // Task "both" held q0 while waiting for q1, then ran.
  EXPECT_GT(w.k().task(id).finished_at, 3000u);
}

TEST(Kernel, PriorityInheritanceBoostsOwner) {
  // lo (prio 9) takes the lock; mid (prio 5, same PE) would starve lo;
  // hi (prio 1, other PE) blocks on the lock -> lo inherits 1 and runs
  // past mid.
  World w;
  Program lo;
  lo.lock(0).compute(4000).unlock(0);
  Program mid;
  mid.compute(6000);
  Program hi;
  hi.compute(300).lock(0).compute(200).unlock(0);
  const TaskId lo_id = w.k().create_task("lo", 0, 9, std::move(lo), 0);
  const TaskId mid_id = w.k().create_task("mid", 0, 5, std::move(mid), 1500);
  const TaskId hi_id = w.k().create_task("hi", 1, 1, std::move(hi), 0);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // With inheritance, lo's CS completes before mid's long compute.
  EXPECT_LT(w.k().task(lo_id).finished_at, w.k().task(mid_id).finished_at);
  EXPECT_LT(w.k().task(hi_id).finished_at, w.k().task(mid_id).finished_at);
  // After unlock, lo's priority is restored to base.
  EXPECT_EQ(w.k().task(lo_id).priority, 9);
}

TEST(Kernel, IpcpRaisesToCeilingImmediately) {
  KernelConfig cfg;
  World w(cfg, /*soclc=*/true, /*ceilings=*/{1, 0, 0, 0, 0, 0, 0, 0});
  // task3-analog takes lock 0 (ceiling 1); equal-PE task2-analog (prio 2)
  // arrives and must NOT preempt it inside the CS (Fig. 20). After the
  // unlock restores t3's base priority, t2 runs first.
  Program t3;
  t3.lock(0).compute(3000).unlock(0);
  Program t2;
  t2.compute(2000);
  const TaskId t3_id = w.k().create_task("t3", 0, 3, std::move(t3), 0);
  const TaskId t2_id = w.k().create_task("t2", 0, 2, std::move(t2), 500);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // t3 held the PE through its whole CS despite t2's higher priority.
  EXPECT_EQ(w.k().task(t3_id).preemptions, 0u);
  EXPECT_GT(w.k().task(t2_id).finished_at, 3000u);
}

TEST(Kernel, LockLatencySamplesUncontended) {
  World w;
  Program p;
  p.lock(0).compute(10).unlock(0).lock(1).compute(10).unlock(1);
  w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_EQ(w.k().lock_latency().count(), 2u);
  EXPECT_EQ(w.k().lock_delay().count(), 0u);
  // §5.5 calibration: software lock latency ~570 cycles.
  EXPECT_NEAR(w.k().lock_latency().mean(), 570.0, 1.0);
}

TEST(Kernel, LockDelaySamplesContended) {
  World w;
  Program a;
  a.lock(0).compute(2000).unlock(0);
  Program b;
  b.compute(100).lock(0).compute(10).unlock(0);
  w.k().create_task("a", 0, 1, std::move(a));
  w.k().create_task("b", 1, 2, std::move(b));
  w.run();
  EXPECT_EQ(w.k().lock_delay().count(), 1u);
  EXPECT_GT(w.k().lock_delay().mean(), 1000.0);
}

TEST(Kernel, AllocFreeThroughProgram) {
  World w;
  Program p;
  p.alloc(4096, "buf").compute(100).free("buf");
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_TRUE(w.k().task(id).allocations.empty());
  EXPECT_EQ(w.k().memory().call_count(), 2u);
}

TEST(Kernel, CallHookRunsInKernelContext) {
  World w;
  int called = 0;
  Program p;
  p.compute(50).call([&](Kernel& k, Task& t) {
    ++called;
    EXPECT_EQ(t.name, "t");
    EXPECT_EQ(k.running_on(0), t.id);
  });
  w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_EQ(called, 1);
}

TEST(Kernel, DeadlineMissDetected) {
  World w;
  Program slow;
  slow.compute(5000);
  Program fine;
  fine.compute(500);
  const TaskId a = w.k().create_task("a", 0, 1, std::move(slow));
  const TaskId b = w.k().create_task("b", 1, 1, std::move(fine));
  w.k().set_deadline(a, 3000);   // will miss
  w.k().set_deadline(b, 3000);   // will meet
  w.run();
  EXPECT_TRUE(w.k().task(a).missed_deadline());
  EXPECT_FALSE(w.k().task(b).missed_deadline());
  EXPECT_EQ(w.k().deadline_misses(), 1u);
  EXPECT_FALSE(w.sim.trace().matching("MISSED its deadline").empty());
}

TEST(Kernel, BlockedCyclesAccounted) {
  World w;
  Program holder;
  holder.request({0}).compute(5000).release({0});
  Program waiter;
  waiter.request({0}).release({0});
  w.k().create_task("h", 0, 1, std::move(holder));
  const TaskId id = w.k().create_task("w", 1, 2, std::move(waiter), 100);
  w.run();
  EXPECT_GT(tests::blocked_cycles(w.k(), id), 3000u);
}

TEST(Kernel, CreateTaskErrorsNameTheOffendingIndexAndLimit) {
  World w;  // pe_count 4, max_tasks 8
  try {
    w.k().create_task("bad-pe", 9, 1, Program{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PE index 9"), std::string::npos) << what;
    EXPECT_NE(what.find("pe_count is 4"), std::string::npos) << what;
  }
  for (int i = 0; i < 8; ++i)
    w.k().create_task("t" + std::to_string(i), 0, 1, Program{});
  try {
    w.k().create_task("overflow", 0, 1, Program{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task 8"), std::string::npos) << what;
    EXPECT_NE(what.find("max_tasks of 8"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace delta::rtos

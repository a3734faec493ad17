// Failure injection: malformed programs, exhausted allocators, misuse of
// services. The kernel must degrade gracefully (trace + skip), never
// wedge a PE or corrupt accounting.
#include <gtest/gtest.h>

#include "rtos/kernel.h"
#include "support/world.h"

namespace delta::rtos {
namespace {

// The shared fixture, shaped like this suite's historical ad-hoc World:
// DAA over the kernel's default 4-resource / 8-task geometry.
struct World : tests::World {
  explicit World(std::uint64_t heap_bytes = 1 << 20)
      : tests::World(make_config(heap_bytes)) {}
  using tests::World::run;
  void run() { tests::World::run(10'000'000); }

 private:
  static tests::WorldConfig make_config(std::uint64_t heap_bytes) {
    tests::WorldConfig wc;
    wc.deadlock = DeadlockComponent::kDaaSoftware;
    wc.resource_count = 4;
    wc.max_tasks = 8;
    wc.heap_bytes = heap_bytes;
    return wc;
  }
};

TEST(FailureInjection, ReleasingUnheldResourceIsIgnored) {
  World w;
  Program p;
  p.release({0, 1}).compute(100).request({0}).release({0});
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_EQ(w.k().strategy().owner(0), kNoTask);
}

TEST(FailureInjection, DoubleReleaseAfterGiveUpIsSafe) {
  // p1's give-up (R-dl) strips a resource p2 later releases explicitly.
  World w;
  Program p1;
  p1.compute(100)
      .request({0})
      .compute(4000)
      .request({1})
      .compute(500)
      .release({0, 1});
  Program p2;
  p2.request({1})
      .compute(1000)
      .request({0})
      .compute(500)
      .release({1, 0});  // q1 may have been given up meanwhile
  w.k().create_task("p1", 0, 1, std::move(p1));
  w.k().create_task("p2", 1, 2, std::move(p2));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  ASSERT_NE(w.k().strategy().state(), nullptr);
  EXPECT_TRUE(w.k().strategy().state()->empty());
}

TEST(FailureInjection, HeapExhaustionTracedAndSkipped) {
  World w(/*heap_bytes=*/4096);
  Program p;
  p.alloc(100'000, "huge").compute(100).alloc(512, "ok").free("ok");
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_FALSE(w.sim.trace().matching("allocation failed").empty());
  EXPECT_EQ(w.k().task(id).allocations.count("huge"), 0u);
}

TEST(FailureInjection, FreeingUnknownSlotTracedAndSkipped) {
  World w;
  Program p;
  p.free("never_allocated").compute(50);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_FALSE(w.sim.trace().matching("unknown slot").empty());
}

TEST(FailureInjection, DuplicateRequestDoesNotWedge) {
  World w;
  Program p;
  p.request({2}).request({2}).compute(100).release({2});
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_EQ(w.k().strategy().owner(2), kNoTask);
}

TEST(FailureInjection, EmptyProgramFinishesImmediately) {
  World w;
  const TaskId id = w.k().create_task("t", 0, 1, Program{});
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
}

TEST(FailureInjection, ZeroCycleComputeAdvances) {
  World w;
  Program p;
  p.compute(0).compute(0).compute(10);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
}

TEST(FailureInjection, TaskTableOverflowThrows) {
  World w;
  for (int i = 0; i < 8; ++i) {
    Program p;
    p.compute(10);
    w.k().create_task("t" + std::to_string(i), 0, 1, std::move(p));
  }
  Program extra;
  extra.compute(10);
  EXPECT_THROW(w.k().create_task("overflow", 0, 1, std::move(extra)),
               std::invalid_argument);
}

TEST(FailureInjection, BadPeIndexThrows) {
  World w;
  Program p;
  p.compute(10);
  EXPECT_THROW(w.k().create_task("t", 99, 1, std::move(p)),
               std::invalid_argument);
}

TEST(FailureInjection, SuspendedTaskSkipsItsStart) {
  World w;
  Program p;
  p.compute(200);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p), 1000);
  w.k().start();
  w.sim.run(100);
  // Suspending before the arrival is a no-op for NotStarted tasks;
  // suspend after start works normally.
  w.k().suspend(id);  // state NotStarted -> becomes Suspended
  w.sim.run(5000);
  w.k().resume(id);
  w.sim.run(1'000'000);
  EXPECT_TRUE(w.k().task(id).done());
}

}  // namespace
}  // namespace delta::rtos

// Periodic task activation with per-activation response-time checking.
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
        sim, bus, cfg, make_strategy(DeadlockComponent::kNone, 4, 8, cfg.costs),
        std::make_unique<SoftwarePiLockBackend>(8, cfg.costs),
        std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20, cfg.costs));
  }
  Kernel& k() { return *kernel; }
  void run() {
    kernel->start();
    sim.run(50'000'000);
  }
};

TEST(Periodic, RejectsBadParameters) {
  World w;
  Program p;
  p.compute(10);
  EXPECT_THROW(w.k().create_periodic_task("t", 0, 1, p, 0, 3),
               std::invalid_argument);
  EXPECT_THROW(w.k().create_periodic_task("t", 0, 1, p, 100, 0),
               std::invalid_argument);
}

TEST(Periodic, RunsRequestedActivations) {
  World w;
  int runs = 0;
  Program p;
  p.call([&](Kernel&, Task&) { ++runs; }).compute(200);
  const TaskId id =
      w.k().create_periodic_task("t", 0, 1, std::move(p), 1000, 5);
  w.run();
  EXPECT_EQ(runs, 5);
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_EQ(w.k().task(id).activations_done, 5u);
  EXPECT_EQ(w.k().task(id).activations_left, 0u);
}

TEST(Periodic, ActivationsSpacedByPeriod) {
  World w;
  std::vector<sim::Cycles> starts;
  Program p;
  p.call([&](Kernel& k, Task&) { starts.push_back(k.simulator().now()); })
      .compute(100);
  w.k().create_periodic_task("t", 0, 1, std::move(p), 2000, 4, 500);
  w.run();
  ASSERT_EQ(starts.size(), 4u);
  for (std::size_t i = 1; i < starts.size(); ++i)
    EXPECT_EQ(starts[i] - starts[i - 1], 2000u);
  EXPECT_GE(starts[0], 500u);  // first release honored
}

TEST(Periodic, WorstResponseTracked) {
  World w;
  Program p;
  p.compute(300);
  const TaskId id =
      w.k().create_periodic_task("t", 0, 1, std::move(p), 1000, 3);
  w.run();
  const Task& t = w.k().task(id);
  // Each activation: context switch + 300 compute.
  EXPECT_EQ(t.worst_response, 300 + w.k().config().costs.context_switch);
  EXPECT_EQ(t.deadline_miss_count, 0u);
}

TEST(Periodic, PerActivationDeadlineMisses) {
  World w;
  // An interfering higher-priority task delays some activations.
  Program hog;
  hog.compute(2500);
  w.k().create_task("hog", 0, 1, std::move(hog), 1000);
  Program p;
  p.compute(400);
  const TaskId id =
      w.k().create_periodic_task("t", 0, 2, std::move(p), 1000, 6);
  w.k().set_deadline(id, 600);
  w.run();
  const Task& t = w.k().task(id);
  EXPECT_TRUE(t.done());
  // The activations overlapping the hog's 2500-cycle burst miss.
  EXPECT_GE(t.deadline_miss_count, 1u);
  EXPECT_LT(t.deadline_miss_count, 6u);
  EXPECT_EQ(w.k().deadline_misses(), t.deadline_miss_count);
}

TEST(Periodic, OverrunReleasesBackToBack) {
  World w;
  // Execution (1500) exceeds the period (1000): activations run
  // back-to-back and each counts as a miss once a deadline is set.
  Program p;
  p.compute(1500);
  const TaskId id =
      w.k().create_periodic_task("t", 0, 1, std::move(p), 1000, 3);
  w.k().set_deadline(id, 1000);
  w.run();
  const Task& t = w.k().task(id);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.activations_done, 3u);
  EXPECT_EQ(t.deadline_miss_count, 3u);
  // Total wall time ~ 3 x (1500 + switch): serialized, no lost work.
  EXPECT_GE(t.finished_at, 4500u);
}

TEST(Periodic, MixesWithResourceOps) {
  World w;
  Program p;
  p.request({0}).compute(300).release({0});
  const TaskId id =
      w.k().create_periodic_task("t", 0, 1, std::move(p), 2000, 4);
  Program other;
  other.compute(200).request({0}).compute(500).release({0});
  w.k().create_task("other", 1, 2, std::move(other), 100);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_EQ(w.k().task(id).activations_done, 4u);
  // The resource is free at the end.
  EXPECT_EQ(w.k().strategy().owner(0), kNoTask);
}

}  // namespace
}  // namespace delta::rtos

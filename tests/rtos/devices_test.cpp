// Device jobs and interrupt delivery (§5.1's timers/interrupt
// generators), including the op::UseDevice kernel path.
#include <gtest/gtest.h>

#include "rtos/devices.h"
#include "rtos/kernel.h"
#include "support/phases.h"

namespace delta::rtos {
namespace {

TEST(DeviceManager, RejectsEmptyConfig) {
  sim::Simulator sim;
  EXPECT_THROW(DeviceManager(sim, 0, 4), std::invalid_argument);
  EXPECT_THROW(DeviceManager(sim, 4, 0), std::invalid_argument);
}

TEST(DeviceManager, JobCompletesWithIrqLatency) {
  sim::Simulator sim;
  DeviceManager dm(sim, 2, 2, /*irq_latency=*/2);
  sim::Cycles fired_at = 0;
  const sim::Cycles done =
      dm.start_job(0, 0, 100, [&] { fired_at = sim.now(); });
  EXPECT_EQ(done, 100u);
  sim.run();
  EXPECT_EQ(fired_at, 102u);
  EXPECT_EQ(dm.jobs_completed(0), 1u);
  EXPECT_EQ(dm.busy_cycles(0), 100u);
}

TEST(DeviceManager, JobsOnSameDeviceSerialize) {
  sim::Simulator sim;
  DeviceManager dm(sim, 1, 1);
  std::vector<sim::Cycles> completions;
  dm.start_job(0, 0, 50, [&] { completions.push_back(sim.now()); });
  dm.start_job(0, 0, 50, [&] { completions.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_GE(completions[1], completions[0] + 50);
}

TEST(DeviceManager, JobsOnDifferentDevicesOverlap) {
  sim::Simulator sim;
  DeviceManager dm(sim, 2, 1, 0);
  std::vector<sim::Cycles> completions;
  dm.start_job(0, 0, 50, [&] { completions.push_back(sim.now()); });
  dm.start_job(1, 0, 50, [&] { completions.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], completions[1]);
}

TEST(DeviceManager, MaskDefersDelivery) {
  sim::Simulator sim;
  DeviceManager dm(sim, 1, 1, 0);
  bool fired = false;
  dm.set_masked(0, true);
  dm.start_job(0, 0, 10, [&] { fired = true; });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(dm.interrupts_deferred(), 1u);
  dm.set_masked(0, false);  // unmask drains the pending interrupt
  EXPECT_TRUE(fired);
  EXPECT_EQ(dm.interrupts_delivered(), 1u);
}

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
  void run() {
    kernel->start();
    sim.run(10'000'000);
  }
};

TEST(KernelDevices, UseDeviceBlocksUntilInterrupt) {
  World w;
  Program p;
  p.request({1}).use_device(1, 5000).release({1});
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_GT(w.k().task(id).finished_at, 5000u);
  EXPECT_GT(tests::blocked_cycles(w.k(), id), 4000u);
  EXPECT_EQ(w.k().devices().jobs_completed(1), 1u);
}

TEST(KernelDevices, PeFreeDuringDeviceJob) {
  World w;
  Program a;
  a.request({1}).use_device(1, 8000).release({1});
  Program b;
  b.compute(3000);
  w.k().create_task("a", 0, 1, std::move(a));
  const TaskId bid = w.k().create_task("b", 0, 2, std::move(b), 100);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // b ran on PE0 while a's device job was in flight.
  EXPECT_LT(w.k().task(bid).finished_at, 8000u);
}

TEST(KernelDevices, UseWithoutHoldingIsSkippedWithTrace) {
  World w;
  Program p;
  p.use_device(2, 1000).compute(10);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_FALSE(w.sim.trace().matching("without holding").empty());
  EXPECT_EQ(w.k().devices().jobs_completed(2), 0u);
}

TEST(KernelDevices, TwoTasksShareDeviceViaResourceManager) {
  World w;
  Program a;
  a.request({1}).use_device(1, 2000).release({1});
  Program b;
  b.compute(100).request({1}).use_device(1, 2000).release({1});
  w.k().create_task("a", 0, 1, std::move(a));
  const TaskId bid = w.k().create_task("b", 1, 2, std::move(b));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_EQ(w.k().devices().jobs_completed(1), 2u);
  EXPECT_GT(w.k().task(bid).finished_at, 4000u);  // serialized via q2
}

}  // namespace
}  // namespace delta::rtos

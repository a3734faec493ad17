// Short-CS spin locks (Atalanta's short-lock protocol / the SoCLC's
// "small locks"): contended acquirers busy-wait on their PE; software
// spinners generate memory-bus traffic, SoCLC spinners do not.
#include <gtest/gtest.h>

#include "rtos/kernel.h"
#include "support/phases.h"

namespace delta::rtos {
namespace {

struct World {
  sim::Simulator sim;
  bus::SharedBus bus{5};
  std::unique_ptr<Kernel> kernel;

  explicit World(bool soclc) {
    KernelConfig cfg;
    cfg.spin_short_locks = true;
    std::unique_ptr<LockBackend> locks;
    if (soclc) {
      hw::SoclcConfig sc;
      sc.short_locks = 4;
      sc.long_locks = 4;
      locks = std::make_unique<SoclcLockBackend>(sc, cfg.costs);
    } else {
      locks = std::make_unique<SoftwarePiLockBackend>(8, cfg.costs,
                                                      /*short=*/4);
    }
    kernel = std::make_unique<Kernel>(
        sim, bus, cfg, make_strategy(DeadlockComponent::kNone, 4, 8, cfg.costs),
        std::move(locks),
        std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20, cfg.costs));
  }
  Kernel& k() { return *kernel; }
  void run() {
    kernel->start();
    sim.run(10'000'000);
  }
};

void build_contention(World& w, LockId lock) {
  Program a;
  a.lock(lock).compute(1500).unlock(lock);
  Program b;
  b.compute(100).lock(lock).compute(100).unlock(lock);
  w.k().create_task("a", 0, 1, std::move(a));
  w.k().create_task("b", 1, 2, std::move(b));
}

TEST(SpinLocks, ContendedShortLockCompletes) {
  for (bool soclc : {false, true}) {
    World w(soclc);
    build_contention(w, /*short lock*/ 0);
    w.run();
    EXPECT_TRUE(w.k().all_finished()) << (soclc ? "soclc" : "software");
  }
}

TEST(SpinLocks, SpinnerHoldsItsPe) {
  // While b spins on PE1, a lower-priority task on PE1 must not run.
  World w(false);
  Program a;
  a.lock(0).compute(2000).unlock(0);
  Program b;
  b.compute(100).lock(0).compute(100).unlock(0);
  Program c;
  c.compute(200);
  w.k().create_task("a", 0, 1, std::move(a));
  w.k().create_task("b", 1, 2, std::move(b));
  const TaskId cid = w.k().create_task("c", 1, 3, std::move(c));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // c only ran after b stopped spinning (post-CS), so c finished last.
  EXPECT_GT(w.k().task(cid).finished_at, 2000u);
}

TEST(SpinLocks, SoftwareSpinGeneratesBusTraffic) {
  World sw(false);
  build_contention(sw, 0);
  sw.run();
  World hw(true);
  build_contention(hw, 0);
  hw.run();
  // PE1 (master 1) hammered the bus while spinning in the software
  // configuration; the SoCLC spinner made no memory-bus transactions.
  const auto sw_words = sw.bus.stats(1).words;
  const auto hw_words = hw.bus.stats(1).words;
  EXPECT_GT(sw_words, hw_words + 20);
}

TEST(SpinLocks, LongLocksStillSuspend) {
  // Lock 5 is a long lock in both backends: the waiter blocks and its PE
  // becomes available to other tasks.
  World w(false);
  Program a;
  a.lock(5).compute(3000).unlock(5);
  Program b;
  b.compute(100).lock(5).compute(100).unlock(5);
  Program c;
  c.compute(300);
  w.k().create_task("a", 0, 1, std::move(a));
  const TaskId bid = w.k().create_task("b", 1, 2, std::move(b));
  const TaskId cid = w.k().create_task("c", 1, 3, std::move(c));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // c ran while b was suspended: it finished before b.
  EXPECT_LT(w.k().task(cid).finished_at, w.k().task(bid).finished_at);
  EXPECT_GT(tests::blocked_cycles(w.k(), bid), 1000u);
}

TEST(SpinLocks, DisabledFlagFallsBackToBlocking) {
  sim::Simulator sim;
  bus::SharedBus bus(5);
  KernelConfig cfg;  // spin_short_locks defaults to false
  Kernel k(sim, bus, cfg,
           make_strategy(DeadlockComponent::kNone, 4, 8, cfg.costs),
           std::make_unique<SoftwarePiLockBackend>(8, cfg.costs, 4),
           std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20,
                                                 cfg.costs));
  Program a;
  a.lock(0).compute(2000).unlock(0);
  Program b;
  b.compute(100).lock(0).compute(100).unlock(0);
  k.create_task("a", 0, 1, std::move(a));
  const TaskId bid = k.create_task("b", 1, 2, std::move(b));
  k.start();
  sim.run(10'000'000);
  EXPECT_TRUE(k.all_finished());
  EXPECT_GT(tests::blocked_cycles(k, bid), 0u);  // suspended, not spinning
}

}  // namespace
}  // namespace delta::rtos

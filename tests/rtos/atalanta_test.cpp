// The Atalanta-flavored API names drive the same kernel behaviour.
#include "rtos/atalanta.h"

#include <gtest/gtest.h>

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
  void run() {
    kernel->start();
    sim.run(10'000'000);
  }
};

TEST(Atalanta, ProducerConsumerThroughScApi) {
  using namespace atalanta;
  World w;
  const SemId sem = sc_screate(w.k(), 0);
  const MailboxId box = sc_mcreate(w.k());

  Program producer;
  sc_gmalloc(producer, 2048, "buf");
  producer.compute(1000);
  sc_msend(producer, box, 0xF00D);
  sc_post(producer, sem);
  sc_gfree(producer, "buf");
  const TaskId pid = sc_tcreate(w.k(), "producer", 0, 1, producer);

  Program consumer;
  sc_pend(consumer, sem);
  sc_mpend(consumer, box);
  consumer.call([](Kernel&, Task& t) {
    EXPECT_EQ(t.last_message, 0xF00Du);
  });
  const TaskId cid = sc_tcreate(w.k(), "consumer", 1, 2, consumer);

  w.run();
  EXPECT_TRUE(w.k().task(pid).done());
  EXPECT_TRUE(w.k().task(cid).done());
  EXPECT_GT(w.k().task(cid).finished_at, 1000u);
}

TEST(Atalanta, LocksAndResourcesThroughScApi) {
  using namespace atalanta;
  World w;
  Program a;
  sc_racquire(a, {0});
  sc_lock(a, 0);
  a.compute(500);
  sc_unlock(a, 0);
  sc_rrelease(a, {0});
  const TaskId id = sc_tcreate(w.k(), "a", 0, 1, a);
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_EQ(w.k().strategy().owner(0), kNoTask);
}

TEST(Atalanta, SuspendResumeAliases) {
  using namespace atalanta;
  World w;
  Program p;
  p.compute(2000);
  const TaskId id = sc_tcreate(w.k(), "t", 0, 1, p);
  w.k().start();
  w.sim.run(300);
  sc_tsuspend(w.k(), id);
  EXPECT_EQ(w.k().task(id).state, TaskState::kSuspended);
  sc_tresume(w.k(), id);
  w.sim.run(1'000'000);
  EXPECT_TRUE(w.k().task(id).done());
}

TEST(Atalanta, SharedMemoryAliases) {
  using namespace atalanta;
  World w;
  Program creator;
  sc_gmalloc_rw(creator, 5, 4096, "shared");
  creator.compute(1500);
  sc_gfree(creator, "shared");
  Program reader;
  reader.compute(300);
  sc_gmalloc_ro(reader, 5, "view");
  sc_gfree(reader, "view");
  sc_tcreate(w.k(), "creator", 0, 1, creator);
  sc_tcreate(w.k(), "reader", 1, 2, reader);
  w.run();
  EXPECT_TRUE(w.k().all_finished());
}

}  // namespace
}  // namespace delta::rtos

// Kernel IPC primitives: semaphores, mailboxes, message queues, events.
#include <gtest/gtest.h>

#include "rtos/kernel.h"
#include "support/phases.h"

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
    sim.run(10'000'000);
  }
};

TEST(KernelIpc, SemaphoreWaitPostHandshake) {
  World w;
  const SemId sem = w.k().create_semaphore(0);
  Program waiter;
  waiter.sem_wait(sem).compute(100);
  Program poster;
  poster.compute(2000).sem_post(sem);
  const TaskId wid = w.k().create_task("waiter", 0, 1, std::move(waiter));
  w.k().create_task("poster", 1, 2, std::move(poster));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_GT(w.k().task(wid).finished_at, 2000u);  // had to wait for post
}

TEST(KernelIpc, SemaphoreInitialCountConsumedWithoutBlocking) {
  World w;
  const SemId sem = w.k().create_semaphore(2);
  Program p;
  p.sem_wait(sem).sem_wait(sem).compute(10);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_EQ(tests::blocked_cycles(w.k(), id), 0u);
}

TEST(KernelIpc, SemaphoreWakesHighestPriorityWaiter) {
  World w;
  const SemId sem = w.k().create_semaphore(0);
  Program low;
  low.sem_wait(sem).compute(10);
  Program high;
  high.compute(50).sem_wait(sem).compute(10);
  Program poster;
  poster.compute(3000).sem_post(sem).compute(3000).sem_post(sem);
  const TaskId low_id = w.k().create_task("low", 0, 5, std::move(low));
  const TaskId high_id = w.k().create_task("high", 1, 1, std::move(high));
  w.k().create_task("poster", 2, 3, std::move(poster));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_LT(w.k().task(high_id).finished_at,
            w.k().task(low_id).finished_at);
}

TEST(KernelIpc, MailboxDeliversMessage) {
  World w;
  const MailboxId box = w.k().create_mailbox();
  Program rx;
  rx.recv(box).call([](Kernel&, Task& t) {
    EXPECT_EQ(t.last_message, 0xCAFEu);
  });
  Program tx;
  tx.compute(1000).send(box, 0xCAFE);
  const TaskId rx_id = w.k().create_task("rx", 0, 1, std::move(rx));
  w.k().create_task("tx", 1, 2, std::move(tx));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_GT(w.k().task(rx_id).finished_at, 1000u);
}

TEST(KernelIpc, MailboxBuffersWhenNoReceiver) {
  World w;
  const MailboxId box = w.k().create_mailbox();
  Program tx;
  tx.send(box, 1).send(box, 2);
  Program rx;
  rx.compute(3000).recv(box).recv(box).call([](Kernel&, Task& t) {
    EXPECT_EQ(t.last_message, 2u);  // FIFO order
  });
  w.k().create_task("tx", 0, 1, std::move(tx));
  const TaskId rx_id = w.k().create_task("rx", 1, 2, std::move(rx));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_EQ(tests::blocked_cycles(w.k(), rx_id), 0u);  // messages were ready
}

TEST(KernelIpc, QueueBlocksSenderWhenFull) {
  World w;
  const QueueId q = w.k().create_queue(1);
  Program tx;
  tx.queue_send(q, 1).queue_send(q, 2).compute(10);
  Program rx;
  rx.compute(4000).queue_recv(q).queue_recv(q);
  const TaskId tx_id = w.k().create_task("tx", 0, 1, std::move(tx));
  w.k().create_task("rx", 1, 2, std::move(rx));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // The second send blocked until the receiver drained a slot.
  EXPECT_GT(tests::blocked_cycles(w.k(), tx_id), 2000u);
}

TEST(KernelIpc, QueueDeliversInOrder) {
  World w;
  const QueueId q = w.k().create_queue(4);
  std::vector<std::uint64_t> got;
  Program tx;
  tx.queue_send(q, 10).queue_send(q, 20).queue_send(q, 30);
  Program rx;
  for (int i = 0; i < 3; ++i) {
    rx.queue_recv(q).call(
        [&got](Kernel&, Task& t) { got.push_back(t.last_message); });
  }
  w.k().create_task("tx", 0, 1, std::move(tx));
  w.k().create_task("rx", 1, 2, std::move(rx));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(KernelIpc, EventFlagsWaitAll) {
  World w;
  const EventGroupId g = w.k().create_event_group();
  Program waiter;
  waiter.event_wait(g, 0b11).compute(10);
  Program setter1;
  setter1.compute(1000).event_set(g, 0b01);
  Program setter2;
  setter2.compute(2000).event_set(g, 0b10);
  const TaskId wid = w.k().create_task("waiter", 0, 1, std::move(waiter));
  w.k().create_task("s1", 1, 2, std::move(setter1));
  w.k().create_task("s2", 2, 3, std::move(setter2));
  w.run();
  EXPECT_TRUE(w.k().all_finished());
  // Wakes only when both flags are set (after the second setter).
  EXPECT_GT(w.k().task(wid).finished_at, 2000u);
}

TEST(KernelIpc, EventWaitAlreadySatisfied) {
  World w;
  const EventGroupId g = w.k().create_event_group();
  Program p;
  p.event_set(g, 0b101).event_wait(g, 0b100).compute(10);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  EXPECT_TRUE(w.k().task(id).done());
  EXPECT_EQ(tests::blocked_cycles(w.k(), id), 0u);
}

}  // namespace
}  // namespace delta::rtos

// Regression tests for the event queue's memory: cancelled payloads
// must die (and their slab slots recycle) immediately, so a
// schedule/cancel storm cannot grow the queue's footprint without
// bound, and a fresh queue must own next to nothing, since sweeps build
// one per short run. Guards against a lazy-cancel design, where a
// cancelled event's closure lingers until its time comes up.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace delta::sim {
namespace {

TEST(EventQueueMemory, CancelDestroysPayloadImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const EventId near_id = q.schedule(5, [token] { (void)*token; });
  const EventId far_id = q.schedule(1'000'000, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(q.cancel(far_id));  // buried below the top: entry goes stale
  EXPECT_EQ(token.use_count(), 2) << "buried cancel must free captures";
  EXPECT_TRUE(q.cancel(near_id));
  EXPECT_EQ(token.use_count(), 1) << "top cancel must free captures";
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueMemory, MillionCancelledEventsStayBounded) {
  EventQueue q;
  // Schedule/cancel 1M events in batches. With eager reclaim the slab
  // only ever holds one batch; footprint must stay at the single-batch
  // level instead of growing with the total event count.
  constexpr std::size_t kTotal = 1'000'000;
  constexpr std::size_t kBatch = 1'000;
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  std::size_t peak = 0;
  for (std::size_t done = 0; done < kTotal; done += kBatch) {
    ids.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      // Mix near and far-future events.
      const Cycles at = (i % 2 == 0) ? Cycles(1 + i) : Cycles(1'000'000 + i);
      ids.push_back(q.schedule(at, [] {}));
    }
    for (const EventId id : ids) ASSERT_TRUE(q.cancel(id));
    ASSERT_TRUE(q.empty());
    peak = std::max(peak, q.footprint_bytes());
  }
  // One batch of nodes is ~128 KiB plus the heap's high-water mark;
  // 4 MiB of headroom keeps the bound loose enough for allocator
  // rounding yet orders of magnitude below the ~128 MiB a leak of all
  // 1M nodes would cost.
  EXPECT_LT(peak, 4u << 20)
      << "cancelled events are retaining slab memory";
}

TEST(EventQueueMemory, FiredSlotsAreRecycled) {
  EventQueue q;
  // Pump events through the queue; the freelist must recycle slots so
  // the slab never exceeds the number of simultaneously-live events.
  Cycles t = 1;
  for (int round = 0; round < 10'000; ++round) {
    q.schedule(t, [] {});
    q.schedule(t + 1, [] {});
    while (!q.empty()) {
      t = q.pop().at + 1;
    }
  }
  // The slab and heap must stay at a handful of recycled nodes and
  // entries, far below the 20k events pumped through.
  EXPECT_LT(q.footprint_bytes(), 4u << 10);
}

TEST(EventQueueMemory, FreshQueueAndSimulatorOwnUnder4KiB) {
  // Sweeps construct one simulator per ~150-event run, so anything the
  // queue allocates up front is paid on every run.
  const EventQueue q;
  EXPECT_LT(q.footprint_bytes(), 4u << 10);
  const Simulator sim;
  EXPECT_LT(sim.queue_footprint_bytes(), 4u << 10);
}

}  // namespace
}  // namespace delta::sim

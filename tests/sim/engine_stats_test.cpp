// Engine introspection at the event-queue layer: the EngineStats
// counters must account for schedules, pops, cancels and stale heap
// entries, and the whole collection path must be inert (and cost-free
// to correctness) when never enabled.
//
// The cancel-storm cases double as the regression suite for the heap's
// lazy-deletion bookkeeping: prunes + compactions must account for
// every cancelled entry, mirroring the memory bounds in
// event_queue_memory_test.cpp.
#include "sim/engine_stats.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"

namespace delta::sim {
namespace {

TEST(Log2Histogram, BucketBoundaries) {
  // Bucket 0 holds zeros; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Log2Histogram::bucket_of((1ull << 31) - 1), 31u);
  // Values at or above 2^31 collapse into the last bucket.
  EXPECT_EQ(Log2Histogram::bucket_of(1ull << 31), 32u);
  EXPECT_EQ(Log2Histogram::bucket_of(~0ull), 32u);
}

TEST(Log2Histogram, AddTracksCountSumMax) {
  Log2Histogram h;
  h.add(0);
  h.add(3);
  h.add(100);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 103u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[7], 1u);  // 100 in [64, 128)
}

TEST(Log2Histogram, UsedTrimsToHighestNonEmptyBucket) {
  Log2Histogram h;
  EXPECT_EQ(h.used(), 0u);
  h.add(0);
  EXPECT_EQ(h.used(), 1u);
  h.add(5);  // bucket 3
  EXPECT_EQ(h.used(), 4u);
  h.add(~0ull);  // last bucket
  EXPECT_EQ(h.used(), Log2Histogram::kBuckets);
}

TEST(Log2Histogram, MergeIsElementwise) {
  Log2Histogram a;
  Log2Histogram b;
  a.add(1);
  a.add(16);
  b.add(16);
  b.add(200);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 233u);
  EXPECT_EQ(a.max, 200u);
  EXPECT_EQ(a.buckets[1], 1u);
  EXPECT_EQ(a.buckets[5], 2u);  // both 16s
  EXPECT_EQ(a.buckets[8], 1u);  // 200 in [128, 256)
}

TEST(EngineStatsMerge, SumsTotalsAndMaxesPeaks) {
  EngineStats a;
  a.live_size.add(1);
  a.pops = 10;
  a.cancels_dead = 1;
  a.slab_peak = 5;
  a.footprint_peak = 1000;
  EngineStats b;
  b.live_size.add(3);
  b.pops = 5;
  b.cancels = 2;
  b.slab_peak = 9;
  b.footprint_peak = 700;
  a.merge(b);
  EXPECT_EQ(a.live_size.count, 2u);
  EXPECT_EQ(a.live_size.max, 3u);
  EXPECT_EQ(a.pops, 15u);
  EXPECT_EQ(a.cancels, 2u);
  EXPECT_EQ(a.cancels_dead, 1u);
  EXPECT_EQ(a.slab_peak, 9u);           // max, not sum
  EXPECT_EQ(a.footprint_peak, 1000u);   // max, not sum
}

TEST(EventQueueStats, OffByDefaultAndZeroedSnapshot) {
  EventQueue q;
  EXPECT_FALSE(q.stats_enabled());
  q.schedule(5, [] {});
  q.schedule(100'000, [] {});
  (void)q.pop();
  const EngineStats s = q.stats_snapshot();
  EXPECT_EQ(s.live_size.count, 0u);
  EXPECT_EQ(s.pops, 0u);
  EXPECT_EQ(s.slab_peak, 0u);
}

TEST(EventQueueStats, EnableIsIdempotentAndCountsFromEnable) {
  EventQueue q;
  q.schedule(1, [] {});  // before enable: never counted
  q.enable_stats();
  q.enable_stats();  // must not reset the collection
  EXPECT_TRUE(q.stats_enabled());
  q.schedule(2, [] {});
  EXPECT_EQ(q.stats_snapshot().live_size.count, 1u);
}

TEST(EventQueueStats, LiveSizeSampledOnSchedule) {
  EventQueue q;
  q.enable_stats();
  q.schedule(10, [] {});       // 1 live
  q.schedule(10, [] {});       // 2
  q.schedule(1'000'000, [] {});  // 3: distance does not matter
  (void)q.pop();
  q.schedule(20, [] {});       // 3 again after the pop
  const EngineStats s = q.stats_snapshot();
  EXPECT_EQ(s.live_size.count, 4u);
  EXPECT_EQ(s.live_size.sum, 1u + 2u + 3u + 3u);
  EXPECT_EQ(s.live_size.max, 3u);
  EXPECT_EQ(s.pops, 1u);
}

TEST(EventQueueStats, DispatchCountsInlineVsBoxed) {
  EventQueue q;
  q.enable_stats();
  q.schedule(1, [] {});  // trivially inline
  std::array<char, SmallFn::kInlineBytes + 8> big{};
  q.schedule(2, [big] { (void)big; });  // capture exceeds the buffer
  (void)q.pop();
  (void)q.pop();
  const EngineStats s = q.stats_snapshot();
  EXPECT_EQ(s.dispatch_inline, 1u);
  EXPECT_EQ(s.dispatch_boxed, 1u);
}

TEST(EventQueueStats, CancelTierAttribution) {
  // Cancels split into hits on live events and rejected dead ids.
  EventQueue q;
  q.enable_stats();
  const EventId near_id = q.schedule(5, [] {});
  const EventId far_id = q.schedule(100'000, [] {});
  EXPECT_TRUE(q.cancel(near_id));
  EXPECT_TRUE(q.cancel(far_id));
  EXPECT_FALSE(q.cancel(near_id));             // already cancelled
  EXPECT_FALSE(q.cancel(0xdeadbeef00000000));  // unknown slot
  const EngineStats s = q.stats_snapshot();
  EXPECT_EQ(s.cancels, 2u);
  EXPECT_EQ(s.cancels_dead, 2u);
}

TEST(EventQueueStats, StaleTopPrunedAsSoonAsItSurfaces) {
  EventQueue q;
  q.enable_stats();
  q.schedule(5, [] {});
  const EventId stale = q.schedule(10, [] {});
  q.schedule(20, [] {});
  EXPECT_TRUE(q.cancel(stale));  // buried: its entry stays parked
  EXPECT_EQ(q.stats_snapshot().heap_prunes, 0u);
  EXPECT_EQ(q.pop().at, 5u);  // the stale entry surfaces and is dropped
  EXPECT_EQ(q.stats_snapshot().heap_prunes, 1u);
  EXPECT_EQ(q.next_time(), 20u);
  EXPECT_EQ(q.pop().at, 20u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats_snapshot().pops, 2u);
}

TEST(EventQueueStats, CancelStormCompactsStaleEntries) {
  EventQueue q;
  q.enable_stats();
  // 130 events, then cancel 90 of the latest ones, so their entries sit
  // below the live top: compaction must fire once stale entries
  // outnumber live ones (at >= 64 stale), and every cancelled entry
  // must eventually be accounted a prune.
  std::vector<EventId> ids;
  for (std::uint64_t i = 0; i < 130; ++i)
    ids.push_back(q.schedule(100 + i, [] {}));
  for (std::size_t i = 40; i < 130; ++i) ASSERT_TRUE(q.cancel(ids[i]));
  EngineStats s = q.stats_snapshot();
  EXPECT_EQ(s.live_size.max, 130u);
  EXPECT_EQ(s.cancels, 90u);
  EXPECT_EQ(s.heap_compactions, 1u);
  // Compaction credits every erased stale entry as a prune; entries
  // cancelled after the rebuild are still parked.
  EXPECT_GE(s.heap_prunes, 64u);
  EXPECT_LE(s.heap_prunes, 90u);
  EXPECT_EQ(q.size(), 40u);
  // The rebuilt heap still pops in (at, seq) order and drops the rest.
  for (Cycles t = 100; t < 140; ++t) ASSERT_EQ(q.pop().at, t);
  EXPECT_TRUE(q.empty());
  s = q.stats_snapshot();
  EXPECT_EQ(s.heap_prunes, 90u);
}

TEST(EventQueueStats, RepeatedStormsKeepFootprintAndPeaksBounded) {
  EventQueue q;
  q.enable_stats();
  // The memory-bound storm from event_queue_memory_test, now asserting
  // the stats layer sees it the same way: the slab high-water stays at
  // one batch, and the freelist peak proves slots recycle.
  constexpr std::size_t kBatch = 500;
  std::vector<EventId> ids;
  for (int round = 0; round < 20; ++round) {
    ids.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Cycles at = (i % 2 == 0) ? Cycles(1 + i) : Cycles(1'000'000 + i);
      ids.push_back(q.schedule(at, [] {}));
    }
    for (const EventId id : ids) ASSERT_TRUE(q.cancel(id));
    ASSERT_TRUE(q.empty());
  }
  const EngineStats s = q.stats_snapshot();
  EXPECT_EQ(s.live_size.count, 20u * kBatch);
  EXPECT_EQ(s.cancels, 20u * kBatch);
  EXPECT_LE(s.slab_peak, kBatch + 64u) << "slab grew across storm rounds";
  EXPECT_GE(s.freelist_peak, kBatch / 2) << "slots are not recycling";
  EXPECT_EQ(s.footprint_peak,
            static_cast<std::uint64_t>(q.footprint_bytes()))
      << "footprint peaked mid-storm yet capacities never shrink";
}

TEST(EventQueueStats, PeaksRefreshedBySnapshot) {
  EventQueue q;
  q.enable_stats();
  for (int i = 0; i < 8; ++i) q.schedule(i + 1, [] {});
  const EngineStats s = q.stats_snapshot();
  EXPECT_GE(s.slab_peak, 8u);
  EXPECT_GT(s.footprint_peak, 0u);
  EXPECT_EQ(s.footprint_peak,
            static_cast<std::uint64_t>(q.footprint_bytes()));
}

TEST(EventQueueStats, StatsDoNotPerturbPopOrder) {
  // Belt-and-braces for report neutrality at the lowest level: the same
  // schedule/cancel/pop sequence must yield identical (at, order)
  // streams with and without stats.
  auto run = [](bool with_stats) {
    EventQueue q;
    if (with_stats) q.enable_stats();
    std::vector<Cycles> fired;
    std::vector<EventId> ids;
    for (std::uint64_t i = 0; i < 50; ++i) {
      ids.push_back(q.schedule(i * 7 % 40, [] {}));
      ids.push_back(q.schedule(100'000 + i * 13 % 60, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    Fired f;
    while (q.pop_if_at_most(kNeverCycles, f)) fired.push_back(f.at);
    return fired;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace delta::sim

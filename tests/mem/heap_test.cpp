#include "mem/heap.h"

#include <gtest/gtest.h>

#include <map>

#include "sim/random.h"

namespace delta::mem {
namespace {

constexpr std::uint64_t kBase = 0x1000;
constexpr std::uint64_t kSize = 64 * 1024;

TEST(SoftwareHeap, RejectsTinyArena) {
  EXPECT_THROW(SoftwareHeap(0, 8), std::invalid_argument);
}

TEST(SoftwareHeap, AllocatesAlignedInArena) {
  SoftwareHeap h(kBase, kSize);
  const HeapCall a = h.malloc(100);
  ASSERT_TRUE(a.ok);
  EXPECT_GE(a.addr, kBase);
  EXPECT_LT(a.addr, kBase + kSize);
  EXPECT_EQ(a.addr % 8, 0u);
  EXPECT_GT(a.cycles, 0u);
  EXPECT_TRUE(h.validate());
}

TEST(SoftwareHeap, ZeroByteMallocFails) {
  SoftwareHeap h(kBase, kSize);
  EXPECT_FALSE(h.malloc(0).ok);
}

TEST(SoftwareHeap, DistinctBlocksDoNotOverlap) {
  SoftwareHeap h(kBase, kSize);
  const HeapCall a = h.malloc(256);
  const HeapCall b = h.malloc(256);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_TRUE(a.addr + 256 <= b.addr || b.addr + 256 <= a.addr);
}

TEST(SoftwareHeap, FreeAndReuse) {
  SoftwareHeap h(kBase, kSize);
  const HeapCall a = h.malloc(512);
  ASSERT_TRUE(h.free(a.addr).ok);
  const HeapCall b = h.malloc(512);
  EXPECT_EQ(b.addr, a.addr);  // first fit reuses the hole
  EXPECT_TRUE(h.validate());
}

TEST(SoftwareHeap, InvalidFreeRejected) {
  SoftwareHeap h(kBase, kSize);
  EXPECT_FALSE(h.free(kBase + 123).ok);
  const HeapCall a = h.malloc(64);
  EXPECT_TRUE(h.free(a.addr).ok);
  EXPECT_FALSE(h.free(a.addr).ok);  // double free detected
  EXPECT_TRUE(h.validate());
}

TEST(SoftwareHeap, ExhaustionFailsGracefully) {
  SoftwareHeap h(kBase, 4096);
  const HeapCall a = h.malloc(3800);
  ASSERT_TRUE(a.ok);
  EXPECT_FALSE(h.malloc(4000).ok);
  EXPECT_TRUE(h.validate());
}

// Rounding a size near 2^64 up used to wrap: malloc(2^64 - 1) took a
// 16-byte block with 0 live bytes, and malloc(2^64 - 16) corrupted the
// block table. A size no block can hold must fail like any exhausted
// request, charged the same first-fit walk.
TEST(SoftwareHeap, SizesThatWrapWhenRoundedFailLikeExhaustion) {
  const std::uint64_t max = ~std::uint64_t{0};
  for (const std::uint64_t bytes :
       {max, max - 7, max - 8, max - 15, max - 16, kSize - 15}) {
    SoftwareHeap h(kBase, kSize);
    SoftwareHeap exhausted(kBase, kSize);
    ASSERT_TRUE(h.malloc(64).ok);
    ASSERT_TRUE(exhausted.malloc(64).ok);
    const HeapCall c = h.malloc(bytes);
    const HeapCall e = exhausted.malloc(kSize);  // too big for the rest
    EXPECT_FALSE(c.ok) << bytes;
    ASSERT_FALSE(e.ok);
    EXPECT_EQ(c.cycles, e.cycles) << bytes;
    EXPECT_EQ(h.total_meter().total(), exhausted.total_meter().total());
    EXPECT_EQ(h.live_bytes(), 64u) << bytes;
    EXPECT_EQ(h.live_blocks(), 1u) << bytes;
    EXPECT_TRUE(h.validate()) << bytes;
  }
  // The largest payload a fresh arena holds still fits, exactly.
  SoftwareHeap whole(kBase, kSize);
  const HeapCall all = whole.malloc(kSize - 16);
  ASSERT_TRUE(all.ok);
  EXPECT_EQ(whole.live_bytes(), kSize - 16);
  EXPECT_EQ(whole.free_list_length(), 0u);
  EXPECT_TRUE(whole.validate());
}

TEST(SoftwareHeap, CoalescingRestoresFullArena) {
  SoftwareHeap h(kBase, kSize);
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 20; ++i) addrs.push_back(h.malloc(1000).addr);
  // Free in a scattered order.
  for (int i = 0; i < 20; i += 2) ASSERT_TRUE(h.free(addrs[i]).ok);
  for (int i = 1; i < 20; i += 2) ASSERT_TRUE(h.free(addrs[i]).ok);
  EXPECT_TRUE(h.validate());
  EXPECT_EQ(h.free_list_length(), 1u);  // fully coalesced
  EXPECT_EQ(h.live_blocks(), 0u);
  // Whole arena usable again.
  EXPECT_TRUE(h.malloc(kSize - 64).ok);
}

TEST(SoftwareHeap, CyclesGrowWithFreeListLength) {
  SoftwareHeap h(kBase, 1 << 20);
  // Fragment the heap: allocate many, free every other one.
  std::vector<std::uint64_t> addrs;
  for (int i = 0; i < 200; ++i) addrs.push_back(h.malloc(128).addr);
  for (int i = 0; i < 200; i += 2) h.free(addrs[i]);
  // A large allocation must walk past ~100 small holes.
  const HeapCall big = h.malloc(4096);
  ASSERT_TRUE(big.ok);
  // Fresh heap satisfies the same request near-instantly by comparison.
  SoftwareHeap fresh(kBase, 1 << 20);
  const HeapCall quick = fresh.malloc(4096);
  EXPECT_GT(big.cycles, quick.cycles + 200);
}

TEST(SoftwareHeap, MetersAccumulate) {
  SoftwareHeap h(kBase, kSize);
  const auto t0 = h.total_cycles();
  h.malloc(100);
  const auto t1 = h.total_cycles();
  EXPECT_GT(t1, t0);
  h.malloc(100);
  EXPECT_GT(h.total_cycles(), t1);
  EXPECT_GT(h.total_meter().total(), 0u);
}

// Pins what the modelled first-fit list charges on fixed traffic: the
// meter counts the allocator the paper times, not the host container
// that stores its block table, so no storage change may move a count.
TEST(SoftwareHeap, MeterIsPinnedOnRandomTraffic) {
  SoftwareHeap h(kBase, 16 * 1024);
  // A scripted prefix takes every path once: splits, an exact-fit reuse
  // that does not split, a free coalescing on both sides, exhaustion.
  const HeapCall a = h.malloc(200);
  const HeapCall b = h.malloc(200);
  const HeapCall c = h.malloc(200);
  const HeapCall d = h.malloc(200);
  ASSERT_TRUE(a.ok && b.ok && c.ok && d.ok);
  ASSERT_TRUE(h.free(b.addr).ok);
  const HeapCall exact = h.malloc(200);  // b's 216-byte hole, no split
  ASSERT_EQ(exact.addr, b.addr);
  ASSERT_TRUE(h.free(a.addr).ok);
  ASSERT_TRUE(h.free(c.addr).ok);
  ASSERT_TRUE(h.free(exact.addr).ok);  // joins c, then a
  ASSERT_EQ(h.free_list_length(), 2u);
  EXPECT_FALSE(h.malloc(20 * 1024).ok);

  sim::Rng rng(2024);
  std::vector<std::uint64_t> live{d.addr};
  std::uint64_t failures = 0;
  for (int step = 0; step < 3000; ++step) {
    if (!live.empty() && rng.chance(0.45)) {
      const std::size_t i = rng.below(live.size());
      ASSERT_TRUE(h.free(live[i]).ok);
      live[i] = live.back();
      live.pop_back();
    } else {
      const HeapCall m = h.malloc(1 + rng.below(1500));
      if (m.ok) live.push_back(m.addr);
      else ++failures;
    }
  }
  ASSERT_TRUE(h.validate());
  EXPECT_EQ(failures, 342u);
  const sim::OpMeter& t = h.total_meter();
  EXPECT_EQ(t.loads, 53091u);
  EXPECT_EQ(t.stores, 20250u);
  EXPECT_EQ(t.alu, 333186u);
  EXPECT_EQ(t.branches, 338309u);
  EXPECT_EQ(h.total_cycles(), 1293419u);
  EXPECT_EQ(h.free_list_length(), 9u);
  EXPECT_EQ(h.live_bytes(), 11848u);
}

// Property test: random malloc/free against a shadow model.
class HeapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapPropertyTest, RandomWorkloadKeepsInvariants) {
  sim::Rng rng(GetParam());
  SoftwareHeap h(kBase, 1 << 20);
  std::map<std::uint64_t, std::uint64_t> live;  // addr -> size
  for (int step = 0; step < 600; ++step) {
    if (!live.empty() && rng.chance(0.45)) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      ASSERT_TRUE(h.free(it->first).ok);
      live.erase(it);
    } else {
      const std::uint64_t bytes = 1 + rng.below(2048);
      const HeapCall c = h.malloc(bytes);
      if (!c.ok) continue;
      // No overlap with any live block.
      for (const auto& [addr, size] : live)
        ASSERT_TRUE(c.addr + bytes <= addr || addr + size <= c.addr)
            << "overlap at step " << step;
      live[c.addr] = bytes;
    }
    ASSERT_TRUE(h.validate()) << "step " << step;
  }
  EXPECT_EQ(h.live_blocks(), live.size());
  for (const auto& [addr, size] : live) {
    (void)size;
    ASSERT_TRUE(h.free(addr).ok);
  }
  EXPECT_EQ(h.free_list_length(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapPropertyTest,
                         ::testing::Values(101, 102, 103, 104));

}  // namespace
}  // namespace delta::mem

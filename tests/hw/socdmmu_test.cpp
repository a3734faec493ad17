#include "hw/socdmmu.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace delta::hw {
namespace {

SocdmmuConfig small_cfg() {
  SocdmmuConfig cfg;
  cfg.total_blocks = 16;
  cfg.block_bytes = 1024;
  cfg.pe_count = 2;
  return cfg;
}

TEST(Socdmmu, RejectsInvalidConfig) {
  SocdmmuConfig cfg = small_cfg();
  cfg.total_blocks = 0;
  EXPECT_THROW(Socdmmu{cfg}, std::invalid_argument);
}

TEST(Socdmmu, AllocRoundsUpToBlocks) {
  Socdmmu u(small_cfg());
  const DmmuAlloc a = u.alloc(0, 1500);  // 2 blocks of 1024
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.blocks, 2u);
  EXPECT_EQ(u.used_blocks(), 2u);
  EXPECT_EQ(a.cycles, small_cfg().alloc_cycles);
}

TEST(Socdmmu, AllocFailsWhenExhausted) {
  Socdmmu u(small_cfg());
  EXPECT_TRUE(u.alloc(0, 16 * 1024).ok);  // all 16 blocks
  const DmmuAlloc a = u.alloc(1, 1);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.cycles, small_cfg().alloc_cycles);  // deterministic even on fail
}

// Rounding a size near 2^64 up to whole blocks used to wrap to 0 blocks,
// which "succeeded" after any earlier allocation. Such a size, and any
// other that exceeds the unit, must fail like an exhausted request.
TEST(Socdmmu, SizesThatWrapWhenRoundedFailLikeExhaustion) {
  const SocdmmuConfig cfg = small_cfg();
  Socdmmu u(cfg);
  ASSERT_TRUE(u.alloc(0, 64).ok);
  const std::size_t max = static_cast<std::size_t>(-1);
  for (const std::size_t bytes :
       {max, max - cfg.block_bytes + 2, cfg.total_blocks * cfg.block_bytes}) {
    const DmmuAlloc a = u.alloc(0, bytes);
    EXPECT_FALSE(a.ok) << bytes;
    EXPECT_EQ(a.blocks, 0u) << bytes;
    EXPECT_EQ(a.cycles, cfg.alloc_cycles) << bytes;
    const DmmuAlloc r = u.alloc_shared(1, 7, bytes, DmmuMode::kSharedRw);
    EXPECT_FALSE(r.ok) << bytes;
    EXPECT_EQ(r.cycles, cfg.alloc_cycles) << bytes;
  }
  EXPECT_EQ(u.used_blocks(), 1u);
  // Every block but the one in use still fits.
  EXPECT_TRUE(u.alloc(1, (cfg.total_blocks - 1) * cfg.block_bytes).ok);
}

TEST(Socdmmu, DeallocReturnsBlocks) {
  Socdmmu u(small_cfg());
  const DmmuAlloc a = u.alloc(0, 4096);
  ASSERT_TRUE(a.ok);
  const auto cycles = u.dealloc(0, a.virtual_addr);
  ASSERT_TRUE(cycles.has_value());
  EXPECT_EQ(*cycles, small_cfg().dealloc_cycles);
  EXPECT_EQ(u.free_blocks(), 16u);
}

TEST(Socdmmu, DeallocUnknownAddressFails) {
  Socdmmu u(small_cfg());
  EXPECT_FALSE(u.dealloc(0, 0xdeadbeef).has_value());
}

TEST(Socdmmu, DeallocWrongPeFails) {
  Socdmmu u(small_cfg());
  const DmmuAlloc a = u.alloc(0, 1024);
  EXPECT_FALSE(u.dealloc(1, a.virtual_addr).has_value());
}

TEST(Socdmmu, TranslationMatchesPhysicalLayout) {
  Socdmmu u(small_cfg());
  const DmmuAlloc a = u.alloc(1, 3000);  // 3 blocks
  ASSERT_TRUE(a.ok);
  const auto base = u.translate(1, a.virtual_addr);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base, a.physical_addr);
  const auto mid = u.translate(1, a.virtual_addr + 2048);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(*mid, a.physical_addr + 2048);
  EXPECT_FALSE(u.translate(0, a.virtual_addr).has_value());  // wrong PE
  EXPECT_FALSE(u.translate(1, a.virtual_addr + 3 * 1024).has_value());
}

TEST(Socdmmu, ReusesFreedBlocks) {
  Socdmmu u(small_cfg());
  const DmmuAlloc a = u.alloc(0, 8 * 1024);
  const DmmuAlloc b = u.alloc(0, 8 * 1024);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(u.free_blocks(), 0u);
  u.dealloc(0, a.virtual_addr);
  const DmmuAlloc c = u.alloc(1, 8 * 1024);
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.physical_addr, a.physical_addr);  // first-fit reuse
}

TEST(Socdmmu, VirtualAddressesNeverOverlapAcrossAllocations) {
  Socdmmu u(small_cfg());
  const DmmuAlloc a = u.alloc(0, 1024);
  const DmmuAlloc b = u.alloc(0, 1024);
  EXPECT_NE(a.virtual_addr, b.virtual_addr);
  // Distinct PEs live in distinct windows.
  const DmmuAlloc c = u.alloc(1, 1024);
  EXPECT_NE(c.virtual_addr, a.virtual_addr);
}

TEST(Socdmmu, RandomStressKeepsAccounting) {
  sim::Rng rng(3);
  Socdmmu u(small_cfg());
  std::vector<std::pair<std::size_t, std::uint64_t>> live;
  for (int i = 0; i < 500; ++i) {
    if (!live.empty() && rng.chance(0.5)) {
      const std::size_t idx = rng.below(live.size());
      ASSERT_TRUE(u.dealloc(live[idx].first, live[idx].second).has_value());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const std::size_t pe = rng.below(2);
      const DmmuAlloc a = u.alloc(pe, 1 + rng.below(4000));
      if (a.ok) live.emplace_back(pe, a.virtual_addr);
    }
    EXPECT_LE(u.used_blocks(), 16u);
  }
  for (auto& [pe, va] : live) ASSERT_TRUE(u.dealloc(pe, va).has_value());
  EXPECT_EQ(u.free_blocks(), 16u);
}

}  // namespace
}  // namespace delta::hw

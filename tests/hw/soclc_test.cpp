#include "hw/soclc.h"

#include <gtest/gtest.h>

#include <vector>

namespace delta::hw {
namespace {

SoclcConfig small_cfg() {
  SoclcConfig cfg;
  cfg.short_locks = 4;
  cfg.long_locks = 4;
  return cfg;
}

TEST(Soclc, ZeroLocksRejected) {
  SoclcConfig cfg;
  cfg.short_locks = 0;
  cfg.long_locks = 0;
  EXPECT_THROW(Soclc{cfg}, std::invalid_argument);
}

TEST(Soclc, AcquireFreeLockGrants) {
  Soclc lc(small_cfg());
  const SoclcGrant g = lc.acquire(0, /*who=*/7, /*priority=*/1);
  EXPECT_TRUE(g.granted);
  EXPECT_EQ(g.cycles, small_cfg().access_cycles);
  EXPECT_EQ(lc.owner(0), 7u);
}

TEST(Soclc, AcquireBusyLockQueues) {
  Soclc lc(small_cfg());
  lc.acquire(0, 1, 1);
  const SoclcGrant g = lc.acquire(0, 2, 2);
  EXPECT_FALSE(g.granted);
  EXPECT_EQ(lc.waiter_count(0), 1u);
}

TEST(Soclc, ReleaseHandsOffByPriority) {
  Soclc lc(small_cfg());
  lc.acquire(0, 1, 5);
  lc.acquire(0, 2, 3);   // medium
  lc.acquire(0, 3, 1);   // highest
  lc.acquire(0, 4, 9);   // lowest
  EXPECT_EQ(lc.release(0, 1), 3u);
  EXPECT_EQ(lc.owner(0), 3u);
  EXPECT_EQ(lc.release(0, 3), 2u);
  EXPECT_EQ(lc.release(0, 2), 4u);
  EXPECT_EQ(lc.release(0, 4), kNoOwner);
}

TEST(Soclc, EqualPrioritiesAreFifo) {
  Soclc lc(small_cfg());
  lc.acquire(0, 1, 2);
  lc.acquire(0, 10, 4);
  lc.acquire(0, 11, 4);
  lc.acquire(0, 12, 4);
  EXPECT_EQ(lc.release(0, 1), 10u);
  EXPECT_EQ(lc.release(0, 10), 11u);
  EXPECT_EQ(lc.release(0, 11), 12u);
}

TEST(Soclc, HandOffReportsNewOwnerAndCeiling) {
  Soclc lc(small_cfg());
  lc.set_ceiling(2, 1);
  lc.acquire(2, 1, 3);
  lc.acquire(2, 5, 2);
  EXPECT_EQ(lc.release(2, 1), 5u);
  EXPECT_EQ(lc.owner(2), 5u);
  EXPECT_EQ(lc.ceiling(2), 1);  // the IPCP ceiling the new owner runs at
}

TEST(Soclc, ReleaseByNonOwnerThrows) {
  Soclc lc(small_cfg());
  lc.acquire(0, 1, 1);
  EXPECT_THROW(lc.release(0, 2), std::logic_error);
}

TEST(Soclc, CancelWaitRemovesFromQueue) {
  Soclc lc(small_cfg());
  lc.acquire(0, 1, 1);
  lc.acquire(0, 2, 2);
  lc.acquire(0, 3, 3);
  lc.cancel_wait(0, 2);
  EXPECT_EQ(lc.waiter_count(0), 1u);
  EXPECT_EQ(lc.release(0, 1), 3u);
}

TEST(Soclc, ShortAndLongLockPartition) {
  Soclc lc(small_cfg());
  EXPECT_FALSE(lc.is_long_lock(0));
  EXPECT_FALSE(lc.is_long_lock(3));
  EXPECT_TRUE(lc.is_long_lock(4));
  EXPECT_TRUE(lc.is_long_lock(7));
  EXPECT_EQ(lc.lock_count(), 8u);
}

TEST(Soclc, CeilingReportedOnImmediateGrant) {
  Soclc lc(small_cfg());
  lc.set_ceiling(1, 42);
  const SoclcGrant g = lc.acquire(1, 9, 50);
  EXPECT_TRUE(g.granted);
  EXPECT_EQ(g.ceiling, 42);
}

TEST(Soclc, IndependentLocks) {
  Soclc lc(small_cfg());
  EXPECT_TRUE(lc.acquire(0, 1, 1).granted);
  EXPECT_TRUE(lc.acquire(1, 2, 1).granted);
  EXPECT_TRUE(lc.acquire(7, 3, 1).granted);
  EXPECT_EQ(lc.owner(0), 1u);
  EXPECT_EQ(lc.owner(1), 2u);
  EXPECT_EQ(lc.owner(7), 3u);
}

}  // namespace
}  // namespace delta::hw

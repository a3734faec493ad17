// Regression anchor for the DAA give-up/re-request ping-pong
// (ROADMAP item 2).
//
// The avoidance kernel resolves a priority conflict by asking a task to
// give up its holdings and immediately re-requesting them on its behalf
// (Kernel::schedule_give_up). Scripted rounds of crossed requests drive
// that path once per round: each episode is give-up -> re-request ->
// eventual re-grant, visible in the kernel trace. Today every episode
// resolves and the workload settles; a run cut short mid-ping-pong ends
// only because run_limit stops it (nothing halts, nothing is detected).
//
// These tests are the before/after anchor for any future give-up
// backoff or victim-rotation design: a backoff should cut the episode
// count without changing the DAA's decisions, while a regression into
// the eternal ping-pong (re-requests that never converge) flips
// PingPongEpisodesResolveAndSettle into a run-limit timeout.
#include <gtest/gtest.h>

#include "support/world.h"

namespace delta::rtos {
namespace {

using tests::World;
using tests::WorldConfig;

WorldConfig daa_config() {
  WorldConfig wc;
  wc.deadlock = DeadlockComponent::kDaaSoftware;
  wc.pe_count = 2;
  wc.resource_count = 2;
  wc.max_tasks = 2;
  return wc;
}

/// Crossed-request rounds with staggered compute so the low-priority
/// task's inner request always finds the high-priority task already
/// waiting: a guaranteed r-dl conflict, resolved by a give-up, every
/// round.
void add_ping_pong_tasks(World& w, int rounds) {
  Program a, b;
  for (int r = 0; r < rounds; ++r) {
    a.request({0}).compute(1000).request({1}).compute(500).release({0, 1});
    b.request({1}).compute(3000).request({0}).compute(500).release({1, 0});
  }
  w.k().create_task("a", 0, 1, a, 0);
  w.k().create_task("b", 1, 2, b, 0);
}

TEST(GiveUpPingPong, EpisodesResolveAndSettle) {
  World w(daa_config());
  add_ping_pong_tasks(w, 6);
  w.run(1'000'000);
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_FALSE(w.k().halted());
  EXPECT_FALSE(w.k().deadlock_detected());
  // Six rounds drive six give-up episodes; every give-up is paired with
  // the kernel's immediate re-request of what was surrendered.
  const std::size_t gives = w.sim.trace().matching("gives up").size();
  const std::size_t rereq = w.sim.trace().matching("re-requests").size();
  EXPECT_GE(gives, 3u);
  EXPECT_EQ(gives, rereq);
}

TEST(GiveUpPingPong, MidChurnRunOnlyTerminatesAtRunLimit) {
  // Cut the same workload off mid-ping-pong: the run ends at run_limit
  // and for no other reason — no halt, no detection, tasks still live.
  // This is the state long avoidance campaigns report as "hit the run
  // limit without settling (livelock?)" (docs/SWEEPS.md).
  World w(daa_config());
  add_ping_pong_tasks(w, 6);
  w.run(30'000);
  EXPECT_FALSE(w.k().all_finished());
  EXPECT_FALSE(w.k().halted());
  EXPECT_FALSE(w.k().deadlock_detected());
  EXPECT_GE(w.sim.trace().matching("gives up").size(), 2u);
}

TEST(GiveUpPingPong, BackoffAnchorEpisodeCountIsStable) {
  // Pin the exact per-round episode pairing (1 round -> 1 give-up) so a
  // future backoff has a precise before/after number to move.
  World w(daa_config());
  add_ping_pong_tasks(w, 1);
  w.run(1'000'000);
  EXPECT_TRUE(w.k().all_finished());
  EXPECT_EQ(w.sim.trace().matching("gives up").size(), 1u);
  EXPECT_EQ(w.sim.trace().matching("asking").size(), 1u);
  EXPECT_EQ(w.sim.trace().matching("re-requests").size(), 1u);
}

}  // namespace
}  // namespace delta::rtos

// Engine introspection at the kernel layer: service-window and
// reschedule-outcome counters must balance exactly, and the give-up
// episode tracker (ROADMAP item 2's backoff sizing input) must agree
// with the kernel trace the give-up regression suite pins.
#include "rtos/engine_counters.h"

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

/// The crossed-request rounds from give_up_regression_test.cpp: each
/// round forces one give-up aimed at the low-priority task.
void add_ping_pong_tasks(World& w, int rounds) {
  Program a, b;
  for (int r = 0; r < rounds; ++r) {
    a.request({0}).compute(1000).request({1}).compute(500).release({0, 1});
    b.request({1}).compute(3000).request({0}).compute(500).release({1, 0});
  }
  w.k().create_task("a", 0, 1, a, 0);
  w.k().create_task("b", 1, 2, b, 0);
}

TEST(EngineCounters, OffByDefaultSnapshotsZero) {
  World w(daa_config());
  add_ping_pong_tasks(w, 2);
  w.run(1'000'000);
  ASSERT_TRUE(w.k().all_finished());
  const EngineCounters c = w.k().engine_counters_snapshot();
  EXPECT_EQ(c.service_windows, 0u);
  EXPECT_EQ(c.resched_calls, 0u);
  EXPECT_EQ(c.give_up_events, 0u);
  EXPECT_EQ(c.give_up_episodes, 0u);
}

TEST(EngineCounters, ServiceWindowsMatchTheirHistogram) {
  World w(daa_config());
  w.k().enable_engine_counters();
  w.k().enable_engine_counters();  // idempotent, must not reset
  add_ping_pong_tasks(w, 2);
  w.run(1'000'000);
  ASSERT_TRUE(w.k().all_finished());
  const EngineCounters c = w.k().engine_counters_snapshot();
  EXPECT_GT(c.service_windows, 0u);
  EXPECT_EQ(c.service_window_cycles.count, c.service_windows);
  EXPECT_GT(c.service_window_cycles.sum, 0u)
      << "service windows recorded with zero cycle cost";
}

TEST(EngineCounters, RescheduleOutcomesPartitionCalls) {
  World w(daa_config());
  w.k().enable_engine_counters();
  add_ping_pong_tasks(w, 3);
  w.run(1'000'000);
  ASSERT_TRUE(w.k().all_finished());
  const EngineCounters c = w.k().engine_counters_snapshot();
  EXPECT_GT(c.resched_calls, 0u);
  EXPECT_EQ(c.resched_calls, c.resched_fastout_in_service +
                                 c.resched_fastout_idle + c.resched_scans)
      << "a reschedule outcome went uncounted";
  EXPECT_GT(c.resched_scans, 0u) << "workload never paid a ready scan";
}

TEST(EngineCounters, GiveUpEventsMatchKernelTrace) {
  World w(daa_config());
  w.k().enable_engine_counters();
  add_ping_pong_tasks(w, 6);
  w.run(1'000'000);
  ASSERT_TRUE(w.k().all_finished());
  const EngineCounters c = w.k().engine_counters_snapshot();
  // Every counted give-up is one "asking ... to give up" trace line.
  EXPECT_EQ(c.give_up_events, w.sim.trace().matching("asking").size());
  EXPECT_GE(c.give_up_events, 3u);
  EXPECT_GT(c.give_up_resources, 0u);
}

TEST(EngineCounters, EpisodeHistogramAccountsEveryGiveUp) {
  World w(daa_config());
  w.k().enable_engine_counters();
  add_ping_pong_tasks(w, 6);
  w.run(1'000'000);
  ASSERT_TRUE(w.k().all_finished());
  const EngineCounters c = w.k().engine_counters_snapshot();
  ASSERT_GT(c.give_up_events, 0u);
  // The snapshot folds any open episode, so episodes partition the
  // event stream: one histogram sample per episode, lengths summing to
  // the total give-up count.
  EXPECT_GT(c.give_up_episodes, 0u);
  EXPECT_EQ(c.give_up_episode_len.count, c.give_up_episodes);
  EXPECT_EQ(c.give_up_episode_len.sum, c.give_up_events);
  EXPECT_GE(c.give_up_episode_len.max, 1u);
}

TEST(EngineCounters, SingleRoundPinsOneEpisodeOfOne) {
  // The backoff-anchor workload (1 round -> exactly 1 give-up) must
  // read as one episode of length 1.
  World w(daa_config());
  w.k().enable_engine_counters();
  add_ping_pong_tasks(w, 1);
  w.run(1'000'000);
  ASSERT_TRUE(w.k().all_finished());
  const EngineCounters c = w.k().engine_counters_snapshot();
  EXPECT_EQ(c.give_up_events, 1u);
  EXPECT_EQ(c.give_up_episodes, 1u);
  EXPECT_EQ(c.give_up_episode_len.max, 1u);
}

TEST(EngineCounters, CountersAreRunToRunDeterministic) {
  auto run_once = [] {
    World w(daa_config());
    w.k().enable_engine_counters();
    add_ping_pong_tasks(w, 4);
    w.run(1'000'000);
    EXPECT_TRUE(w.k().all_finished());
    return w.k().engine_counters_snapshot();
  };
  const EngineCounters a = run_once();
  const EngineCounters b = run_once();
  EXPECT_EQ(a.service_windows, b.service_windows);
  EXPECT_EQ(a.service_window_cycles.sum, b.service_window_cycles.sum);
  EXPECT_EQ(a.resched_calls, b.resched_calls);
  EXPECT_EQ(a.resched_scans, b.resched_scans);
  EXPECT_EQ(a.give_up_events, b.give_up_events);
  EXPECT_EQ(a.give_up_episodes, b.give_up_episodes);
}

TEST(EngineCounters, CountersDoNotPerturbTheRun) {
  // Report neutrality at the kernel layer: identical final cycle count
  // and trace with counters on and off.
  auto run_once = [](bool with_counters) {
    World w(daa_config());
    if (with_counters) w.k().enable_engine_counters();
    add_ping_pong_tasks(w, 4);
    const sim::Cycles end = w.run(1'000'000);
    EXPECT_TRUE(w.k().all_finished());
    return std::pair{end, w.sim.trace().matching("").size()};
  };
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(EngineCounters, MergeSumsCountersAndHistograms) {
  EngineCounters a;
  a.service_windows = 4;
  a.service_window_cycles.add(100);
  a.resched_calls = 10;
  a.resched_scans = 10;
  a.give_up_events = 2;
  a.give_up_episodes = 1;
  a.give_up_episode_len.add(2);
  EngineCounters b;
  b.service_windows = 6;
  b.service_window_cycles.add(900);
  b.resched_calls = 5;
  b.resched_fastout_idle = 5;
  a.merge(b);
  EXPECT_EQ(a.service_windows, 10u);
  EXPECT_EQ(a.service_window_cycles.count, 2u);
  EXPECT_EQ(a.service_window_cycles.sum, 1000u);
  EXPECT_EQ(a.resched_calls, 15u);
  EXPECT_EQ(a.resched_scans, 10u);
  EXPECT_EQ(a.resched_fastout_idle, 5u);
  EXPECT_EQ(a.give_up_episode_len.sum, 2u);
}

}  // namespace
}  // namespace delta::rtos

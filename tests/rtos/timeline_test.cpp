#include "rtos/timeline.h"

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
  sim::Cycles run() {
    kernel->start();
    return sim.run(10'000'000);
  }
};

TEST(Timeline, SingleTaskRunningSpan) {
  World w;
  Program p;
  p.compute(1000);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  const sim::Cycles end = w.k().last_finish_time();
  const Timeline tl = Timeline::from_kernel(w.k(), end);
  EXPECT_EQ(tl.running_time(id),
            1000 + w.k().config().costs.context_switch);
  const auto spans = tl.for_task(id);
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().phase, obs::TaskPhase::kRunning);
}

TEST(Timeline, BlockedSpanForResourceWait) {
  World w;
  Program holder;
  holder.request({0}).compute(4000).release({0});
  Program waiter;
  waiter.compute(100).request({0}).release({0});
  w.k().create_task("h", 0, 1, std::move(holder));
  const TaskId wid = w.k().create_task("w", 1, 2, std::move(waiter));
  w.run();
  const Timeline tl = Timeline::from_kernel(w.k(), w.k().last_finish_time());
  sim::Cycles blocked = 0;
  for (const obs::PhaseSpan& s : tl.for_task(wid))
    if (s.phase == obs::TaskPhase::kBlocked) blocked += s.end - s.begin;
  EXPECT_EQ(blocked, 4077u);
}

TEST(Timeline, PreemptionShowsReadyGap) {
  World w;
  Program lo;
  lo.compute(5000);
  Program hi;
  hi.compute(1000);
  const TaskId lo_id = w.k().create_task("lo", 0, 5, std::move(lo));
  w.k().create_task("hi", 0, 1, std::move(hi), 1000);
  w.run();
  const Timeline tl = Timeline::from_kernel(w.k(), w.k().last_finish_time());
  // lo has at least two running spans separated by hi's window.
  std::size_t running_spans = 0;
  for (const obs::PhaseSpan& s : tl.for_task(lo_id))
    if (s.phase == obs::TaskPhase::kRunning) ++running_spans;
  EXPECT_GE(running_spans, 2u);
}

TEST(Timeline, SpansNeverOverlapPerTask) {
  World w;
  for (int t = 0; t < 3; ++t) {
    Program p;
    p.compute(500).request({0}).compute(800).release({0}).compute(300);
    w.k().create_task("t" + std::to_string(t), 0, t + 1, std::move(p),
                      static_cast<sim::Cycles>(100 * t));
  }
  w.run();
  const Timeline tl = Timeline::from_kernel(w.k(), w.k().last_finish_time());
  for (TaskId t = 0; t < 3; ++t) {
    const auto spans = tl.for_task(t);
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_GE(spans[i].begin, spans[i - 1].end) << "task " << t;
  }
}

TEST(Timeline, OnePeNeverRunsTwoTasksAtOnce) {
  World w;
  for (int t = 0; t < 3; ++t) {
    Program p;
    p.compute(700).request({static_cast<ResourceId>(t % 2)}).compute(400)
        .release({static_cast<ResourceId>(t % 2)});
    w.k().create_task("t" + std::to_string(t), 0, t + 1, std::move(p));
  }
  w.run();
  const Timeline tl = Timeline::from_kernel(w.k(), w.k().last_finish_time());
  // Collect running spans on PE0 (all tasks are pinned there) and check
  // pairwise disjointness.
  std::vector<obs::PhaseSpan> running;
  for (const obs::PhaseSpan& s : tl.spans())
    if (s.phase == obs::TaskPhase::kRunning) running.push_back(s);
  for (std::size_t i = 0; i < running.size(); ++i)
    for (std::size_t j = i + 1; j < running.size(); ++j) {
      const bool disjoint = running[i].end <= running[j].begin ||
                            running[j].end <= running[i].begin;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
}

TEST(Timeline, GanttRendersAllTasks) {
  World w;
  Program a;
  a.compute(1000);
  Program b;
  b.compute(500);
  w.k().create_task("alpha", 0, 1, std::move(a));
  w.k().create_task("beta", 1, 2, std::move(b));
  w.run();
  const Timeline tl = Timeline::from_kernel(w.k(), w.k().last_finish_time());
  const std::string g = tl.gantt(60);
  EXPECT_NE(g.find("alpha"), std::string::npos);
  EXPECT_NE(g.find("beta"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
}

TEST(Timeline, HorizonClipsSpans) {
  World w;
  Program p;
  p.compute(10000);
  const TaskId id = w.k().create_task("t", 0, 1, std::move(p));
  w.run();
  const Timeline tl = Timeline::from_kernel(w.k(), 2000);
  for (const obs::PhaseSpan& s : tl.for_task(id)) EXPECT_LE(s.end, 2000u);
  EXPECT_LE(tl.running_time(id), 2000u);
}

}  // namespace
}  // namespace delta::rtos

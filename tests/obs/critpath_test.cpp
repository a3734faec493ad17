// Unit tests for the cycle-attribution / critical-path analyzer on
// hand-built ProfileInputs, where every bucket value is computable by
// inspection.
#include <gtest/gtest.h>

#include "obs/critpath.h"

namespace delta::obs {
namespace {

Event make_event(EventKind kind, std::uint16_t pe, sim::Cycles start,
                 sim::Cycles dur, std::uint64_t a0, std::uint64_t a1 = 0) {
  Event e;
  e.kind = kind;
  e.pe = pe;
  e.start = start;
  e.dur = dur;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

/// Two tasks: t0 runs 10..110 on pe0 after 10 ready cycles; t1 on pe1
/// runs 5..20, blocks 20..70 on lock 2 held by t0, runs 70..100.
ProfileInput two_task_input() {
  ProfileInput in;
  in.horizon = 110;
  in.tasks = {{"t0", 0}, {"t1", 1}};
  in.phases = {
      {0, 0, TaskPhase::kReady},   {0, 1, TaskPhase::kReady},
      {5, 1, TaskPhase::kRunning}, {10, 0, TaskPhase::kRunning},
      {20, 1, TaskPhase::kBlocked}, {70, 1, TaskPhase::kRunning},
      {100, 1, TaskPhase::kAbsent}, {110, 0, TaskPhase::kAbsent},
  };
  // 5 service cycles inside t0's running span.
  in.events.push_back(
      make_event(EventKind::kKernelService, 0, 10, 5, /*task=*/0));
  // 4 spin cycles on pe1 while t1 runs (attributed via the PE index).
  in.events.push_back(
      make_event(EventKind::kLockSpin, 1, 8, 4, /*lock=*/2, /*polls=*/1));
  // t1 blocks at 20 waiting for lock 2, held by t0.
  WaitForInfo info;
  info.object = 2;
  info.kind = WaitObject::kLock;
  info.has_holder = true;
  info.holder = 0;
  in.events.push_back(
      make_event(EventKind::kWaitFor, 1, 20, 0, /*waiter=*/1,
                 pack_wait_for(info)));
  return in;
}

TEST(Critpath, BucketsMatchHandComputedValues) {
  const ProfileReport r = build_profile(two_task_input());
  ASSERT_EQ(r.tasks.size(), 2u);

  const TaskBuckets& t0 = r.tasks[0];
  EXPECT_EQ(t0.total, 110u);       // 10 ready + 100 running
  EXPECT_EQ(t0.sched_wait, 10u);
  EXPECT_EQ(t0.service, 5u);
  EXPECT_EQ(t0.spin, 0u);
  EXPECT_EQ(t0.blocked, 0u);
  EXPECT_EQ(t0.overhead, 15u);
  EXPECT_EQ(t0.run, 95u);

  const TaskBuckets& t1 = r.tasks[1];
  EXPECT_EQ(t1.total, 100u);       // 5 ready + 45 running + 50 blocked
  EXPECT_EQ(t1.sched_wait, 5u);
  EXPECT_EQ(t1.spin, 4u);
  EXPECT_EQ(t1.service, 0u);
  EXPECT_EQ(t1.blocked, 50u);
  EXPECT_EQ(t1.overhead, 5u);
  EXPECT_EQ(t1.run, 41u);
}

TEST(Critpath, BucketInvariantHoldsExactly) {
  const ProfileReport r = build_profile(two_task_input());
  for (const TaskBuckets& b : r.tasks) {
    EXPECT_EQ(b.run + b.spin + b.blocked + b.overhead, b.total) << b.name;
    EXPECT_EQ(b.overhead, b.sched_wait + b.service) << b.name;
  }
}

TEST(Critpath, WaitSpansCarryHolderAndObject) {
  const ProfileReport r = build_profile(two_task_input());
  ASSERT_EQ(r.wait_spans.size(), 1u);
  const WaitSpan& w = r.wait_spans[0];
  EXPECT_EQ(w.waiter, 1u);
  EXPECT_TRUE(w.has_holder);
  EXPECT_EQ(w.holder, 0u);
  EXPECT_EQ(w.object_kind, WaitObject::kLock);
  EXPECT_EQ(w.object, 2u);
  EXPECT_EQ(w.begin, 20u);
  EXPECT_EQ(w.end, 70u);
}

TEST(Critpath, ContentionAggregatesBlockedAndSpin) {
  const ProfileReport r = build_profile(two_task_input());
  ASSERT_EQ(r.contention.size(), 1u);
  const ContentionEntry& c = r.contention[0];
  EXPECT_EQ(c.kind, WaitObject::kLock);
  EXPECT_EQ(c.object, 2u);
  EXPECT_EQ(c.label, "lock2");
  EXPECT_EQ(c.waits, 1u);
  EXPECT_EQ(c.blocked_cycles, 50u);
  EXPECT_EQ(c.spin_cycles, 4u);
}

TEST(Critpath, CriticalPathFollowsHolderChain) {
  // t2 blocks on t1 (span 10..90), t1 blocks on t0 (span 20..60,
  // overlapping), t0 never blocks: the chain is t2 -> t1.
  ProfileInput in;
  in.horizon = 100;
  in.tasks = {{"t0", 0}, {"t1", 1}, {"t2", 2}};
  in.phases = {
      {0, 0, TaskPhase::kRunning},  {0, 1, TaskPhase::kRunning},
      {0, 2, TaskPhase::kRunning},  {10, 2, TaskPhase::kBlocked},
      {20, 1, TaskPhase::kBlocked}, {60, 1, TaskPhase::kRunning},
      {90, 2, TaskPhase::kRunning},
  };
  WaitForInfo w21;
  w21.object = 0;
  w21.kind = WaitObject::kResource;
  w21.has_holder = true;
  w21.holder = 1;
  in.events.push_back(
      make_event(EventKind::kWaitFor, 2, 10, 0, 2, pack_wait_for(w21)));
  WaitForInfo w10 = w21;
  w10.holder = 0;
  in.events.push_back(
      make_event(EventKind::kWaitFor, 1, 20, 0, 1, pack_wait_for(w10)));
  in.resource_names = {"IDCT"};

  const ProfileReport r = build_profile(in);
  ASSERT_EQ(r.wait_spans.size(), 2u);
  ASSERT_EQ(r.critical_path.size(), 2u);
  EXPECT_EQ(r.critical_path[0].waiter, 2u);
  EXPECT_EQ(r.critical_path[1].waiter, 1u);
  EXPECT_EQ(r.critical_path_cycles, (90u - 10u) + (60u - 20u));
  // Path links sum to the reported length.
  sim::Cycles sum = 0;
  for (const WaitSpan& s : r.critical_path) sum += s.end - s.begin;
  EXPECT_EQ(sum, r.critical_path_cycles);
  // Resource 0 is labelled with its name.
  ASSERT_EQ(r.contention.size(), 1u);
  EXPECT_EQ(r.contention[0].label, "IDCT");
}

TEST(Critpath, CyclicWaitGraphTerminates) {
  // Deadlock shape: t0 waits for t1 while t1 waits for t0, overlapping
  // spans. The analyzer must terminate and report a finite path.
  ProfileInput in;
  in.horizon = 100;
  in.tasks = {{"t0", 0}, {"t1", 1}};
  in.phases = {
      {0, 0, TaskPhase::kRunning}, {0, 1, TaskPhase::kRunning},
      {10, 0, TaskPhase::kBlocked}, {12, 1, TaskPhase::kBlocked},
  };
  WaitForInfo w01;
  w01.object = 1;
  w01.kind = WaitObject::kResource;
  w01.has_holder = true;
  w01.holder = 1;
  in.events.push_back(
      make_event(EventKind::kWaitFor, 0, 10, 0, 0, pack_wait_for(w01)));
  WaitForInfo w10 = w01;
  w10.object = 0;
  w10.holder = 0;
  in.events.push_back(
      make_event(EventKind::kWaitFor, 1, 12, 0, 1, pack_wait_for(w10)));

  const ProfileReport r = build_profile(in);
  ASSERT_EQ(r.wait_spans.size(), 2u);
  EXPECT_FALSE(r.critical_path.empty());
  // Both spans clip to the horizon; the path cannot double-count a link.
  EXPECT_LE(r.critical_path_cycles, (100u - 10u) + (100u - 12u));
  EXPECT_GT(r.critical_path_cycles, 0u);
}

TEST(Critpath, HorizonClipsOpenPhases) {
  ProfileInput in;
  in.horizon = 50;
  in.tasks = {{"t0", 0}};
  in.phases = {{0, 0, TaskPhase::kReady}, {10, 0, TaskPhase::kRunning}};
  const ProfileReport r = build_profile(in);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].sched_wait, 10u);
  EXPECT_EQ(r.tasks[0].run, 40u);  // 10..50, clipped
  EXPECT_EQ(r.tasks[0].total, 50u);
}

TEST(Critpath, FoldPhasesClipsAndDropsInCloseOrder) {
  const std::vector<PhaseChange> log = {
      {0, 0, TaskPhase::kReady},   {5, 1, TaskPhase::kRunning},
      {10, 0, TaskPhase::kRunning},
      {20, 7, TaskPhase::kRunning},  // no task 7: ignored
      {30, 1, TaskPhase::kAbsent}, {40, 0, TaskPhase::kBlocked},
      {40, 0, TaskPhase::kReady},    // empty blocked span: dropped
      {120, 0, TaskPhase::kRunning},  // opens past the horizon: dropped
  };
  const std::vector<PhaseSpan> spans = fold_phases(log, 2, 100);
  const std::vector<PhaseSpan> want = {
      {0, 0, 10, TaskPhase::kReady},
      {1, 5, 30, TaskPhase::kRunning},
      {0, 10, 40, TaskPhase::kRunning},
      {0, 40, 100, TaskPhase::kReady},  // clipped at the horizon
  };
  ASSERT_EQ(spans.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spans[i].task, want[i].task) << i;
    EXPECT_EQ(spans[i].begin, want[i].begin) << i;
    EXPECT_EQ(spans[i].end, want[i].end) << i;
    EXPECT_EQ(spans[i].phase, want[i].phase) << i;
  }
}

TEST(Critpath, EmptyInputYieldsEmptyReport) {
  ProfileInput in;
  in.horizon = 0;
  const ProfileReport r = build_profile(in);
  EXPECT_TRUE(r.tasks.empty());
  EXPECT_TRUE(r.wait_spans.empty());
  EXPECT_TRUE(r.critical_path.empty());
  EXPECT_EQ(r.critical_path_cycles, 0u);
}

TEST(Critpath, PackUnpackWaitForRoundTrips) {
  WaitForInfo info;
  info.object = 0xDEADBEEF;
  info.kind = WaitObject::kQueue;
  info.has_holder = true;
  info.holder = 0xABCD;
  const WaitForInfo out = unpack_wait_for(pack_wait_for(info));
  EXPECT_EQ(out.object, info.object);
  EXPECT_EQ(out.kind, info.kind);
  EXPECT_EQ(out.has_holder, info.has_holder);
  EXPECT_EQ(out.holder, info.holder);

  WaitForInfo bare;
  bare.object = 7;
  bare.kind = WaitObject::kDevice;
  const WaitForInfo out2 = unpack_wait_for(pack_wait_for(bare));
  EXPECT_EQ(out2.object, 7u);
  EXPECT_EQ(out2.kind, WaitObject::kDevice);
  EXPECT_FALSE(out2.has_holder);
}

TEST(Critpath, ObjectLabelUsesResourceNames) {
  const std::vector<std::string> names = {"VI", "IDCT"};
  EXPECT_EQ(object_label(WaitObject::kResource, 1, names), "IDCT");
  EXPECT_EQ(object_label(WaitObject::kDevice, 0, names), "VI");
  EXPECT_EQ(object_label(WaitObject::kResource, 5, names), "resource5");
  EXPECT_EQ(object_label(WaitObject::kLock, 3, names), "lock3");
  EXPECT_EQ(object_label(WaitObject::kSemaphore, 0, {}), "semaphore0");
}

}  // namespace
}  // namespace delta::obs

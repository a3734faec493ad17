// End-to-end checks of the cycle-attribution profiler on a full Mpsoc:
// bucket sums are exact, wait-for edges and contention come out of real
// lock/resource traffic, the windowed sampler integrates to the
// end-of-run utilization totals, and sampling never perturbs the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/workloads.h"
#include "soc/mpsoc.h"
#include "soc/profile.h"
#include "soc/utilization.h"

namespace delta::soc {
namespace {

/// A small mixed workload touching locks, resources, memory and the bus
/// (the same shape observability_test.cpp uses).
void build_workload(Mpsoc& soc) {
  for (int t = 0; t < 3; ++t) {
    rtos::Program p;
    p.compute(100)
        .lock(0)
        .compute(300)
        .unlock(0)
        .request({0, 1})
        .compute(200)
        .release({1, 0})
        .alloc(4096, "buf")
        .compute(50)
        .free("buf");
    soc.kernel().create_task("t" + std::to_string(t),
                             static_cast<rtos::PeId>(t % 2), t + 1,
                             std::move(p),
                             static_cast<sim::Cycles>(10 * t));
  }
}

MpsocConfig traced_config() {
  MpsocConfig cfg;
  cfg.pe_count = 2;
  cfg.deadlock = DeadlockComponent::kDdu;
  cfg.trace_capacity = 4096;
  return cfg;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

std::uint64_t track_total(const obs::TimeSeries& ts,
                          const std::string& name) {
  const std::int64_t i = ts.track_index(name);
  EXPECT_GE(i, 0) << name;
  return i < 0 ? 0 : ts.total(static_cast<std::size_t>(i));
}

TEST(Profile, BucketsSumExactlyOnARealRun) {
  MpsocConfig cfg = traced_config();
  cfg.sample_period = 1'000;
  Mpsoc soc{cfg};
  build_workload(soc);
  soc.run(5'000'000);
  ASSERT_TRUE(soc.kernel().all_finished());

  const obs::ProfileReport r = profile_report(soc);
  ASSERT_EQ(r.tasks.size(), 3u);
  EXPECT_EQ(r.horizon, soc.kernel().last_finish_time());
  for (const obs::TaskBuckets& b : r.tasks) {
    EXPECT_GT(b.total, 0u) << b.name;
    EXPECT_EQ(b.run + b.spin + b.blocked + b.overhead, b.total) << b.name;
    EXPECT_EQ(b.overhead, b.sched_wait + b.service) << b.name;
  }
  EXPECT_GT(r.events_seen, 0u);
  EXPECT_EQ(r.events_dropped, 0u);
}

TEST(Profile, ContentionAndWaitSpansComeFromRealTraffic) {
  Mpsoc soc{traced_config()};
  build_workload(soc);
  soc.run(5'000'000);

  const obs::ProfileReport r = profile_report(soc);
  // Three tasks fight over lock 0 and resources {0, 1}: somebody waited.
  ASSERT_FALSE(r.contention.empty());
  std::uint64_t contended = 0;
  for (const obs::ContentionEntry& c : r.contention) {
    EXPECT_FALSE(c.label.empty());
    EXPECT_GT(c.waits + c.spin_cycles, 0u) << c.label;
    contended += c.blocked_cycles + c.spin_cycles;
  }
  EXPECT_GT(contended, 0u);
  for (const obs::WaitSpan& w : r.wait_spans) {
    EXPECT_LT(w.waiter, r.tasks.size());
    EXPECT_GE(w.end, w.begin);
    if (w.has_holder) {
      EXPECT_LT(w.holder, r.tasks.size());
    }
  }
}

TEST(Profile, SamplerIntegralMatchesUtilizationTotalsExactly) {
  MpsocConfig cfg = traced_config();
  cfg.sample_period = 500;  // many windows, deliberately unaligned
  Mpsoc soc{cfg};
  build_workload(soc);
  soc.run(5'000'000);
  ASSERT_TRUE(soc.kernel().all_finished());

  const obs::TimeSeries& ts = soc.time_series();
  ASSERT_FALSE(ts.empty());
  const UtilizationReport ur = utilization_report(soc);
  // Delta tracks integrate to the end-of-run totals exactly — the
  // windowed view and the summary view are the same measurement.
  ASSERT_EQ(ur.pes.size(), 2u);
  for (const PeUtilization& u : ur.pes)
    EXPECT_EQ(track_total(ts, "pe" + std::to_string(u.pe) + ".busy_cycles"),
              u.busy)
        << "pe" << u.pe;
  EXPECT_EQ(track_total(ts, "bus.words"), ur.bus_words);
  EXPECT_EQ(track_total(ts, "lock.spin_polls"),
            counter_value(soc.observer().metrics.snapshot(), "lock.spins"));
}

TEST(Profile, TraceDroppedCounterMatchesTheRing) {
  MpsocConfig cfg = traced_config();
  cfg.trace_capacity = 8;  // absurdly small: forces overflow
  Mpsoc soc{cfg};
  build_workload(soc);
  soc.run(5'000'000);

  const auto& trace = soc.observer().trace;
  EXPECT_GT(trace.dropped(), 0u);
  EXPECT_EQ(counter_value(soc.observer().metrics.snapshot(), "trace.dropped"),
            trace.dropped());
  // The profiler reports the loss instead of silently attributing less.
  const obs::ProfileReport r = profile_report(soc);
  EXPECT_EQ(r.events_dropped, trace.dropped());
}

TEST(Profile, SamplingDoesNotChangeTheRun) {
  auto run_once = [](sim::Cycles period, sim::Cycles* last_finish,
                     std::size_t* trace_count) {
    MpsocConfig cfg = traced_config();
    cfg.sample_period = period;
    Mpsoc soc{cfg};
    build_workload(soc);
    soc.run(5'000'000);
    *last_finish = soc.kernel().last_finish_time();
    *trace_count = soc.observer().trace.events().size();
    return soc.observer().metrics.snapshot();
  };
  sim::Cycles finish_plain = 0, finish_sampled = 0;
  std::size_t events_plain = 0, events_sampled = 0;
  const obs::MetricsSnapshot plain =
      run_once(0, &finish_plain, &events_plain);
  const obs::MetricsSnapshot sampled =
      run_once(777, &finish_sampled, &events_sampled);  // odd period
  EXPECT_EQ(finish_plain, finish_sampled);
  EXPECT_EQ(events_plain, events_sampled);
  for (const char* name :
       {"kernel.context_switches", "bus.words", "bus.transactions",
        "lock.acquires", "deadlock.requests", "mem.allocs"})
    EXPECT_EQ(counter_value(plain, name), counter_value(sampled, name))
        << name;
}

/// RTOS`preset` x mixed (rng seed 1) sampled every 777 cycles, a
/// period that lines up with no compute phase of the workload.
obs::TimeSeries mixed_series(RtosPreset preset) {
  const exp::Workload w = exp::mixed_workload();
  MpsocConfig mc = rtos_preset(preset).to_mpsoc_config();
  if (w.tune) w.tune(mc);
  mc.stop_on_deadlock = false;
  mc.sample_period = 777;
  Mpsoc soc{mc};
  sim::Rng rng(1);
  w.build(soc, rng);
  soc.run(50'000'000);
  return soc.time_series();
}

/// FNV-1a over the bytes of `v`, little end first.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins the sampler's per-window values, not just their totals: every
// (t, value) of every track for RTOS1-7, plus RTOS1's per-PE busy
// windows spelled out. Moving one busy cycle across a window boundary
// fails both.
TEST(Profile, PerWindowSamplesArePinned) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t samples = 0;
  for (const RtosPreset p : kAllRtosPresets) {
    const obs::TimeSeries ts = mixed_series(p);
    digest = fnv(digest, ts.tracks().size());
    for (const obs::TimeSeries::Sample& s : ts.samples()) {
      digest = fnv(digest, s.t);
      for (const std::uint64_t v : s.values) digest = fnv(digest, v);
    }
    samples += ts.samples().size();
  }
  EXPECT_EQ(samples, 339u);
  EXPECT_EQ(digest, 4591334714177387913ULL);

  // RTOS1 per-PE busy cycles in each 777-cycle window. The run goes
  // idle at ~57k cycles, so the last window closes at the 50M limit.
  const std::vector<std::vector<std::uint64_t>> rtos1_busy = {
      {656, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       777, 777, 777, 522, 0, 0, 0, 0, 608, 777, 777, 777, 777, 777, 777,
       777, 777, 777, 777, 777, 777, 664, 0, 0, 0, 0, 466, 777, 777, 777,
       777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 29, 0, 0, 0,
       324, 777, 777, 777, 777, 777, 777, 760, 0, 0, 0, 0, 0, 0, 0, 0, 0,
       0},
      {466, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       777, 777, 777, 777, 777, 734, 0, 0, 0, 0, 396, 777, 777, 777, 777,
       777, 777, 777, 777, 777, 777, 777, 777, 777, 99, 0, 0, 0, 254,
       777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       241, 0, 0, 0, 112, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       413, 0, 0, 0, 0, 0},
      {314, 777, 777, 777, 777, 777, 777, 451, 0, 0, 0, 0, 679, 777, 777,
       777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 593, 0, 0, 0, 0,
       537, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       735, 0, 0, 0, 0, 395, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       777, 777, 777, 777, 100, 0, 465, 777, 777, 777, 777, 777, 777,
       557, 0, 0, 0},
      {91, 777, 777, 777, 777, 777, 777, 777, 777, 663, 0, 0, 0, 0, 467,
       777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       28, 0, 0, 0, 325, 777, 777, 777, 777, 777, 777, 777, 777, 777,
       777, 777, 777, 777, 170, 0, 0, 0, 183, 777, 777, 777, 777, 777,
       777, 777, 777, 777, 777, 777, 777, 777, 777, 777, 524, 0, 41, 777,
       777, 777, 777, 777, 349},
  };
  const obs::TimeSeries ts = mixed_series(RtosPreset::kRtos1);
  ASSERT_EQ(ts.samples().size(), 75u);
  EXPECT_EQ(ts.samples().back().t, 50'000'000u);
  for (std::size_t pe = 0; pe < rtos1_busy.size(); ++pe) {
    const std::int64_t track =
        ts.track_index("pe" + std::to_string(pe) + ".busy_cycles");
    ASSERT_GE(track, 0);
    std::vector<std::uint64_t> windows;
    for (const obs::TimeSeries::Sample& s : ts.samples())
      windows.push_back(s.values[static_cast<std::size_t>(track)]);
    EXPECT_EQ(windows, rtos1_busy[pe]) << "pe" << pe;
  }
}

}  // namespace
}  // namespace delta::soc

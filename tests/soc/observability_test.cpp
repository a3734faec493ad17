// End-to-end checks of the observability layer on a full Mpsoc: the
// metrics registry fills from every instrumented subsystem, each kernel
// counts into exactly one observer, the trace ring captures typed
// events, and both are deterministic across identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "soc/mpsoc.h"

namespace delta::soc {
namespace {

/// A small mixed workload touching locks, resources, memory and the bus.
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

bool has_kind(const std::vector<obs::Event>& ev, obs::EventKind k) {
  return std::any_of(ev.begin(), ev.end(),
                     [k](const obs::Event& e) { return e.kind == k; });
}

TEST(Observability, RegistryFillsFromAllSubsystems) {
  Mpsoc soc{traced_config()};
  // The kernel counts into the system's observer, not a private one.
  ASSERT_EQ(&soc.kernel().observer(), &soc.observer());
  build_workload(soc);
  soc.run(5'000'000);
  ASSERT_TRUE(soc.kernel().all_finished());

  const obs::MetricsSnapshot snap = soc.observer().metrics.snapshot();
  EXPECT_GT(counter_value(snap, "bus.transactions"), 0u);
  EXPECT_GT(counter_value(snap, "bus.words"), 0u);
  EXPECT_GT(counter_value(snap, "kernel.context_switches"), 0u);
  EXPECT_EQ(counter_value(snap, "lock.acquires"), 3u);
  EXPECT_EQ(counter_value(snap, "lock.releases"), 3u);
  EXPECT_EQ(counter_value(snap, "deadlock.requests"), 6u);  // 3 x {0,1}
  EXPECT_EQ(counter_value(snap, "deadlock.releases"), 6u);
  EXPECT_EQ(counter_value(snap, "mem.allocs"), 3u);
  EXPECT_EQ(counter_value(snap, "mem.frees"), 3u);
  EXPECT_GT(counter_value(snap, "ddu.runs"), 0u);  // hardware unit

  // The kernel's latency accessors read registry-owned histograms, so
  // the two views must agree.
  const std::uint64_t lat_count = soc.kernel().lock_latency().count();
  EXPECT_GT(lat_count, 0u);
  bool found = false;
  for (const auto& [n, h] : snap.histograms)
    if (n == "lock.latency") {
      found = true;
      EXPECT_EQ(h.count, lat_count);
    }
  EXPECT_TRUE(found);
}

/// A one-PE kernel on software backends, counting into `o` (null: into
/// a private observer of its own).
std::unique_ptr<rtos::Kernel> bare_kernel(sim::Simulator& sim,
                                          bus::SharedBus& bus,
                                          obs::Observer* o) {
  rtos::KernelConfig cfg;
  cfg.pe_count = 1;
  auto k = std::make_unique<rtos::Kernel>(
      sim, bus, cfg,
      rtos::make_strategy(DeadlockComponent::kNone, 1, cfg.max_tasks,
                          cfg.costs),
      std::make_unique<rtos::SoftwarePiLockBackend>(2, cfg.costs),
      std::make_unique<rtos::SoftwareHeapBackend>(0x1000, 1 << 16,
                                                  cfg.costs),
      o);
  rtos::Program p;
  p.lock(0).compute(10).unlock(0);
  k->create_task("t", 0, 1, std::move(p));
  return k;
}

TEST(Observability, KernelRegistersOnlyInTheObserverItIsGiven) {
  sim::Simulator sim;
  bus::SharedBus bus(2);
  obs::Observer given;
  const auto k = bare_kernel(sim, bus, &given);
  ASSERT_EQ(&k->observer(), &given);
  // Registered at construction: the kernel's 14 metrics and the software
  // lock backend's two, each once, in the given registry.
  std::vector<std::string> names;
  const obs::MetricsSnapshot at_start = given.metrics.snapshot();
  for (const auto& [n, v] : at_start.counters) names.emplace_back(n);
  for (const auto& [n, h] : at_start.histograms) names.emplace_back(n);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "deadlock.releases", "deadlock.requests",
                       "kernel.context_switches", "kernel.preemptions",
                       "lock.acquires", "lock.contended", "lock.releases",
                       "lock.spins", "lock.sw.acquires", "lock.sw.enqueues",
                       "mem.alloc_failures", "mem.allocs", "mem.frees",
                       "lock.delay", "lock.latency", "mem.alloc_latency"}));
  EXPECT_EQ(&k->lock_latency(), &given.metrics.histogram("lock.latency"));
  k->start();
  sim.run();
  ASSERT_TRUE(k->all_finished());
  EXPECT_EQ(given.metrics.counter("lock.acquires").value(), 1u);
  EXPECT_EQ(given.metrics.counter("lock.sw.acquires").value(), 1u);
  EXPECT_GT(given.metrics.counter("kernel.context_switches").value(), 0u);
}

TEST(Observability, BareKernelCountsIntoItsPrivateObserver) {
  sim::Simulator sim;
  bus::SharedBus bus(2);
  const auto k = bare_kernel(sim, bus, nullptr);
  k->start();
  sim.run();
  ASSERT_TRUE(k->all_finished());
  obs::MetricsRegistry& m = k->observer().metrics;
  EXPECT_EQ(m.counter("lock.acquires").value(), 1u);
  EXPECT_EQ(m.counter("lock.sw.acquires").value(), 1u);
  EXPECT_EQ(k->lock_latency().count(), 1u);
}

TEST(Observability, TraceCapturesTypedEvents) {
  Mpsoc soc{traced_config()};
  build_workload(soc);
  soc.run(5'000'000);

  ASSERT_TRUE(soc.observer().trace.enabled());
  const std::vector<obs::Event> ev = soc.observer().trace.events();
  ASSERT_FALSE(ev.empty());
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kBusTransfer));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kLockAcquire));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kLockRelease));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kDeadlockRequest));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kDeadlockRelease));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kAlloc));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kFree));
  EXPECT_TRUE(has_kind(ev, obs::EventKind::kContextSwitch));
  // Recording order is preserved. Starts are not globally monotone —
  // events with a duration (lock grants, bus transfers) are recorded at
  // completion with a backdated start — but instantaneous events of one
  // kind are: check the context switches.
  sim::Cycles last = 0;
  for (const obs::Event& e : ev)
    if (e.kind == obs::EventKind::kContextSwitch) {
      EXPECT_GE(e.start, last);
      last = e.start;
    }
}

TEST(Observability, DisabledByDefaultAndCostsNothing) {
  MpsocConfig cfg;
  cfg.pe_count = 2;
  Mpsoc soc{cfg};
  build_workload(soc);
  soc.run(5'000'000);
  EXPECT_FALSE(soc.observer().trace.enabled());
  EXPECT_TRUE(soc.observer().trace.events().empty());
  // Metrics still collect (they are cheap counters, always on).
  EXPECT_GT(counter_value(soc.observer().metrics.snapshot(),
                          "kernel.context_switches"),
            0u);
}

TEST(Observability, IdenticalRunsProduceIdenticalObservations) {
  auto run_once = [](std::string* chrome_json) {
    Mpsoc soc{traced_config()};
    build_workload(soc);
    soc.run(5'000'000);
    obs::ProcessTrace pt;
    pt.pid = 0;
    pt.name = "run";
    pt.events = soc.observer().trace.events();
    pt.dropped = soc.observer().trace.dropped();
    *chrome_json = obs::chrome_trace_json({pt});
    return soc.observer().metrics.snapshot();
  };
  std::string json_a, json_b;
  const obs::MetricsSnapshot a = run_once(&json_a);
  const obs::MetricsSnapshot b = run_once(&json_b);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].first, b.counters[i].first);
    EXPECT_EQ(a.counters[i].second, b.counters[i].second);
  }
  EXPECT_EQ(json_a, json_b);
}

TEST(Observability, TraceRingBoundsMemoryOnLongRuns) {
  MpsocConfig cfg = traced_config();
  cfg.trace_capacity = 8;  // absurdly small: forces overflow
  Mpsoc soc{cfg};
  build_workload(soc);
  soc.run(5'000'000);
  const auto& trace = soc.observer().trace;
  EXPECT_EQ(trace.events().size(), 8u);
  EXPECT_GT(trace.dropped(), 0u);
  EXPECT_EQ(trace.recorded(), trace.dropped() + 8);
}

}  // namespace
}  // namespace delta::soc

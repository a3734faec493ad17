// Allocation guard: a warm kernel service window must not touch the host
// heap, and setting a run's tasks up touches it at most once per task.
//
// The binary replaces the global operator new and counts its calls. The
// same periodic storm runs twice on each of RTOS1-7, with K activations
// per task and then with 2K. Construction, workload build and one-off
// growth are the same in both runs, so the difference is what the extra
// K activations cost: each one walks alloc -> request -> lock -> compute
// -> unlock -> release -> free, contended, through every service window.
// The budget is one allocation per 1,000 dispatched events; what is left
// is amortized growth of the sample vectors.
//
// Set-up is counted directly: Kernel::create_task up to max_tasks, and
// fuzz::Scenario::install of a large-geometry scenario, whose one
// allocation per task is the program's op vector. So is a run's
// bookkeeping: registering an Mpsoc's metrics and snapshotting them
// make no allocation per name, and report_to_json grows its document
// once, whatever the number of runs. So is a whole short sweep run: the
// Mpsoc's construction and a warm exp::execute_run stay within fixed
// budgets, and the mixed build sizes each op vector once. So are the
// deadlock probes: once warm, the hierarchical detector, the
// full-matrix software PDDA and DDU and the WFG scan read the matrix in
// place and allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "deadlock/hierarchical.h"
#include "deadlock/pdda.h"
#include "exp/json.h"
#include "exp/sweep.h"
#include "exp/workloads.h"
#include "fuzz/scenario.h"
#include "hw/ddu.h"
#include "rag/generators.h"
#include "rag/state_matrix.h"
#include "rtos/resource_manager.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "soc/delta_framework.h"
#include "soc/mpsoc.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Out of line, so that the compiler does not pair an inlined free() with
// a new-expression and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace delta::soc {
namespace {

constexpr sim::Cycles kPeriod = 20'000;
constexpr std::uint32_t kActivations = 500;

struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t finished = 0;
};

/// One storm of `activations` per task, counted from construction to the
/// end of the run. No gtest macro runs inside the counted window.
Tally run_storm(RtosPreset preset, std::uint32_t activations) {
  MpsocConfig mc = rtos_preset(preset).to_mpsoc_config();
  mc.stop_on_deadlock = false;
  mc.trace = false;
  mc.trace_capacity = 0;
  mc.sample_period = 0;
  mc.record_transitions = false;

  Tally t;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    Mpsoc soc(mc);
    auto& k = soc.kernel();
    const rtos::ResourceId idct = soc.resource("IDCT");
    const rtos::ResourceId dsp = soc.resource("DSP");
    sim::Rng rng(11);
    for (std::size_t i = 0; i < k.config().pe_count; ++i) {
      const rtos::ResourceId res = i % 2 ? dsp : idct;
      rtos::Program p;
      p.alloc(4096, "work")
          .request({res})
          .lock(0)
          .compute(500 + rng.below(200))
          .unlock(0)
          .compute(1000 + rng.below(400))
          .release({res})
          .free("work");
      k.create_periodic_task("storm" + std::to_string(i + 1),
                             static_cast<rtos::PeId>(i),
                             static_cast<rtos::Priority>(i + 1), std::move(p),
                             kPeriod, activations,
                             static_cast<sim::Cycles>(200 * i));
    }
    soc.run(kPeriod * (activations + 2));
    t.events = soc.simulator().events_dispatched();
    for (rtos::TaskId id = 0; id < k.task_count(); ++id)
      t.finished += k.task(id).activations_done;
  }
  t.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return t;
}

/// Parameter: the Table 3 row, 1..7.
class AllocGuard : public ::testing::TestWithParam<int> {};

TEST_P(AllocGuard, ExtraActivationsAllocateAtMostOncePerThousandEvents) {
  const RtosPreset preset = rtos_preset_from_int(GetParam());
  const Tally k = run_storm(preset, kActivations);
  const Tally k2 = run_storm(preset, 2 * kActivations);
  ASSERT_GT(k2.events, k.events);
  // Every activation ran: the storm really went through the services.
  EXPECT_EQ(k2.finished, 2 * k.finished);
  const std::uint64_t extra_events = k2.events - k.events;
  const std::uint64_t extra_allocations =
      k2.allocations > k.allocations ? k2.allocations - k.allocations : 0;
  EXPECT_LE(extra_allocations * 1000, extra_events)
      << extra_allocations << " allocations over " << extra_events
      << " extra events (" << k.allocations << " -> " << k2.allocations
      << " per run)";
}

INSTANTIATE_TEST_SUITE_P(Presets, AllocGuard, ::testing::Range(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "RTOS" + std::to_string(info.param);
                         });

std::uint64_t allocations_so_far() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocGuardSetUp, CreateTaskAllocatesNothingUpToMaxTasks) {
  MpsocConfig mc;
  mc.max_tasks = 32;
  Mpsoc soc(mc);
  rtos::Kernel& k = soc.kernel();
  const std::size_t n = k.config().max_tasks;
  // Names and programs are built outside the counted window and moved
  // in, so the window holds create_task's own allocations only.
  std::vector<std::string> names;
  std::vector<rtos::Program> programs(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("t" + std::to_string(i));
    const rtos::ResourceId res = i % mc.resources.size();
    programs[i].compute(100).request({res}).compute(50).release({res});
  }

  const std::uint64_t before = allocations_so_far();
  k.create_task(std::move(names[0]), 0, 1, std::move(programs[0]));
  const rtos::Task* first = &k.task(0);
  for (std::size_t i = 1; i < n; ++i)
    k.create_task(std::move(names[i]),
                  static_cast<rtos::PeId>(i % mc.pe_count),
                  static_cast<rtos::Priority>(i + 1), std::move(programs[i]));
  const std::uint64_t allocations = allocations_so_far() - before;

  EXPECT_EQ(allocations, 0u) << "over " << n << " create_task calls";
  EXPECT_EQ(&k.task(0), first);
  ASSERT_EQ(k.task_count(), n);
  soc.run();
  EXPECT_TRUE(k.all_finished());
}

TEST(AllocGuardSetUp, ScenarioInstallAllocatesAtMostOncePerTask) {
  fuzz::GeneratorParams params = fuzz::large_geometry_params();
  params.min_tasks = params.max_tasks = 32;
  sim::Rng rng(21);
  const fuzz::Scenario s = fuzz::random_scenario(params, rng);
  ASSERT_EQ(s.tasks.size(), 32u);
  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos2);
  cfg.pe_count = s.pe_count;
  cfg.task_count = s.tasks.size();
  cfg.resource_count = s.resource_count;
  Mpsoc soc(cfg.to_mpsoc_config());

  const std::uint64_t before = allocations_so_far();
  s.install(soc.kernel());
  const std::uint64_t allocations = allocations_so_far() - before;

  EXPECT_LE(allocations, s.tasks.size())
      << allocations << " allocations installing " << s.tasks.size()
      << " tasks";
  EXPECT_EQ(soc.kernel().task_count(), s.tasks.size());
}

/// Every metric name an RTOS1-7 Mpsoc registers, as the constants a
/// registry takes. A name missing here fails the test below by name.
constexpr obs::MetricName kMpsocMetricNames[] = {
    "bus.busy_cycles",     "bus.transactions",   "bus.wait_cycles",
    "bus.words",           "dau.commands",       "dau.ddu_probes",
    "ddu.iterations",      "ddu.runs",           "deadlock.releases",
    "deadlock.requests",   "kernel.context_switches",
    "kernel.preemptions",  "lock.acquires",      "lock.contended",
    "lock.releases",       "lock.spins",         "lock.sw.acquires",
    "lock.sw.enqueues",    "mem.alloc_failures", "mem.allocs",
    "mem.frees",           "socdmmu.alloc_failures",
    "socdmmu.allocs",      "socdmmu.deallocs",   "soclc.acquires",
    "soclc.grants",        "soclc.handoffs",     "soclc.queued",
    "lock.delay",          "lock.latency",       "mem.alloc_latency"};

const obs::MetricName* find_metric_name(std::string_view name) {
  for (const obs::MetricName& n : kMpsocMetricNames)
    if (n.view() == name) return &n;
  return nullptr;
}

TEST(AllocGuardSetUp, MetricsRegistryAllocatesNothingPerName) {
  for (const RtosPreset preset : kAllRtosPresets) {
    Mpsoc soc(rtos_preset(preset).to_mpsoc_config());
    const obs::MetricsRegistry& metrics = soc.observer().metrics;
    std::vector<const obs::MetricName*> counters;
    std::vector<const obs::MetricName*> histograms;
    {
      const obs::MetricsSnapshot snap = metrics.snapshot();
      for (const auto& [name, value] : snap.counters) {
        counters.push_back(find_metric_name(name));
        ASSERT_NE(counters.back(), nullptr) << name;
      }
      for (const auto& [name, h] : snap.histograms) {
        histograms.push_back(find_metric_name(name));
        ASSERT_NE(histograms.back(), nullptr) << name;
      }
    }
    const std::size_t names = counters.size() + histograms.size();

    // The same names registered again into a fresh registry, then two
    // snapshots of the Mpsoc's own: each snapshot is its two vectors.
    std::uint64_t before = allocations_so_far();
    {
      obs::MetricsRegistry reg;
      for (const obs::MetricName* n : counters) reg.counter(*n).add();
      for (const obs::MetricName* n : histograms) reg.histogram(*n);
    }
    const std::uint64_t registering = allocations_so_far() - before;
    before = allocations_so_far();
    {
      const obs::MetricsSnapshot a = metrics.snapshot();
      const obs::MetricsSnapshot b = metrics.snapshot();
    }
    const std::uint64_t snapshots = allocations_so_far() - before;

    EXPECT_EQ(registering, 0u) << to_string(preset) << ": " << names
                               << " names";
    EXPECT_LE(snapshots, 4u) << to_string(preset) << ": " << names
                             << " names";
  }
}

TEST(AllocGuardSetUp, ReportToJsonAllocatesAlikeFor100And800Runs) {
  exp::SweepSpec spec;
  spec.configs = exp::all_preset_points();
  spec.workloads = {exp::mixed_workload()};
  spec.seeds.clear();
  const std::size_t seeds = 800 / spec.configs.size() + 1;
  for (std::uint64_t s = 0; s < seeds; ++s) spec.seeds.push_back(s);
  const std::vector<exp::RunSpec> cells = exp::expand(spec);
  // Seed by seed across the seven presets, so that both reports hold
  // the same seven aggregates.
  std::vector<exp::RunResult> runs;
  for (std::size_t s = 0; s < seeds; ++s)
    for (std::size_t c = 0; c < spec.configs.size(); ++c)
      runs.push_back(exp::execute_run(cells[c * seeds + s], spec));

  const auto report_allocations = [&](std::size_t n) {
    exp::SweepReport report;
    report.runs.assign(runs.begin(), runs.begin() + n);
    const std::uint64_t before = allocations_so_far();
    const std::size_t bytes = exp::report_to_json(spec, report).size();
    const std::uint64_t allocations = allocations_so_far() - before;
    EXPECT_GT(bytes, n * 1000);
    return allocations;
  };
  EXPECT_EQ(report_allocations(100), report_allocations(800));
}

// A sweep of short runs pays each run's allocations once per ~150
// events, so a run allocates for what it keeps, not for how its
// containers grow from empty. The perfbench sweep-mixed cells (RTOS1-7
// x mixed x 144 seeds, base seed 7), after one warm-up pass: an Mpsoc
// configured as execute_run configures it is built within 24
// allocations on average, the mixed build sizes each task's op vector
// once, and a whole execute_run stays within 56 allocations on average.
TEST(AllocGuardSetUp, SweepRunAllocationsStayLow) {
  exp::SweepSpec spec;
  spec.configs = exp::all_preset_points();
  spec.workloads = {exp::mixed_workload()};
  spec.seeds.clear();
  for (std::uint64_t s = 0; s < 144; ++s) spec.seeds.push_back(s);
  spec.base_seed = 7;
  const std::vector<exp::RunSpec> cells = exp::expand(spec);
  for (const exp::RunSpec& rs : cells) (void)exp::execute_run(rs, spec);

  std::uint64_t construction_allocations = 0;
  std::uint64_t build_allocations = 0;
  std::size_t tasks = 0;
  for (const exp::RunSpec& rs : cells) {
    MpsocConfig mc = rs.config->config.to_mpsoc_config();
    if (rs.workload->tune) rs.workload->tune(mc);
    if (rs.config->tune) rs.config->tune(mc);
    mc.trace = spec.trace;
    mc.trace_capacity = spec.trace_capacity;
    mc.sample_period = spec.sample_period;
    mc.engine_stats = spec.engine_stats;
    mc.record_transitions = spec.profile;
    std::uint64_t before = allocations_so_far();
    Mpsoc soc(mc);
    construction_allocations += allocations_so_far() - before;
    sim::Rng rng(rs.run_seed);
    before = allocations_so_far();
    rs.workload->build(soc, rng);
    build_allocations += allocations_so_far() - before;
    tasks += soc.kernel().task_count();
  }

  std::size_t ok = 0;
  const std::uint64_t before = allocations_so_far();
  for (const exp::RunSpec& rs : cells) ok += exp::execute_run(rs, spec).ok;
  const std::uint64_t run_allocations = allocations_so_far() - before;

  const auto per_run = [&](std::uint64_t allocations) {
    return static_cast<double>(allocations) /
           static_cast<double>(cells.size());
  };
  ASSERT_EQ(ok, cells.size());
  EXPECT_LE(construction_allocations, 24 * cells.size())
      << per_run(construction_allocations) << " allocations per Mpsoc";
  EXPECT_LE(build_allocations, tasks)
      << build_allocations << " allocations building " << tasks << " tasks";
  EXPECT_LE(run_allocations, 56 * cells.size())
      << per_run(run_allocations) << " allocations per execute_run";
}

// The probes run on every deadlock-strategy event, so once warm they
// must not allocate: after one warm-up call, 1,000 detect_event calls
// along a fixed-seed walk and 100 detect_all calls on a 64x64 C=8
// detector, and 100 periodic scans of the WFG strategy on a state that
// holds a cycle. Each scan adds one sample to the strategy's algorithm
// times, which hold the warm-up scan's sample, so the scans may
// allocate exactly what a SampleSet holding one sample allocates
// growing by the same 100 samples.
TEST(AllocGuardProbes, WarmDeadlockProbesAllocateNothing) {
  constexpr std::size_t kSize = 64;
  deadlock::HierarchicalDetector det(deadlock::ClusterMap(kSize, kSize, 8));
  rag::StateMatrix s(kSize, kSize);
  sim::Rng rng(0xa110c);
  std::size_t deadlocks = 0;
  // One single-row event of the walk: a grant of a free resource or a
  // new request, undone when it deadlocks.
  const auto step = [&] {
    while (true) {
      const rag::ResId q = rng.below(kSize);
      const rag::ProcId p = rng.below(kSize);
      const rag::Edge cur = s.at(q, p);
      if (cur == rag::Edge::kGrant) {
        s.set(q, p, rag::Edge::kNone);
        continue;
      }
      if (cur == rag::Edge::kRequest && s.owner(q) != rag::kNoProc) continue;
      s.set(q, p,
            cur == rag::Edge::kNone ? rag::Edge::kRequest : rag::Edge::kGrant);
      if (det.detect_event(s, q).deadlock) {
        ++deadlocks;
        s.set(q, p, cur);
      }
      return;
    }
  };
  step();
  std::uint64_t before = allocations_so_far();
  for (int i = 0; i < 1000; ++i) step();
  const std::uint64_t event_allocations = allocations_so_far() - before;
  before = allocations_so_far();
  std::size_t all_deadlocks = 0;
  for (int i = 0; i < 100; ++i) all_deadlocks += det.detect_all(s).deadlock;
  const std::uint64_t all_allocations = allocations_so_far() - before;
  EXPECT_EQ(event_allocations, 0u);
  EXPECT_EQ(all_allocations, 0u);
  EXPECT_GT(deadlocks, 0u) << "the walk never probed a deadlock";
  EXPECT_EQ(all_deadlocks, 0u);

  const rtos::ServiceCosts costs;
  const auto wfg = rtos::make_strategy(rtos::DeadlockComponent::kWfgRecovery,
                                       kSize, kSize, costs);
  for (rtos::TaskId t = 0; t < 4; ++t) (void)wfg->request(t, t, 0);
  for (rtos::TaskId t = 0; t < 4; ++t) (void)wfg->request(t, (t + 1) % 4, 0);
  ASSERT_TRUE(wfg->scan(0).deadlock_detected);
  sim::SampleSet samples;
  samples.add(0.0);
  before = allocations_so_far();
  for (int i = 0; i < 100; ++i) samples.add(0.0);
  const std::uint64_t sample_allocations = allocations_so_far() - before;
  before = allocations_so_far();
  std::size_t detected = 0;
  for (int i = 0; i < 100; ++i) detected += wfg->scan(0).deadlock_detected;
  const std::uint64_t scan_allocations = allocations_so_far() - before;
  EXPECT_EQ(detected, 100u);
  EXPECT_EQ(scan_allocations, sample_allocations);
  EXPECT_EQ(wfg->invocations(), 101u);

  // Full-matrix reductions: one-word rows (5x5, 64x64) and three-word
  // rows (80x130), the DDU loading each state into its own cells.
  struct Shape {
    std::size_t m, n;
  };
  for (const Shape shape : {Shape{5, 5}, Shape{64, 64}, Shape{80, 130}}) {
    SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n);
    std::vector<rag::StateMatrix> states;
    for (int i = 0; i < 16; ++i)
      states.push_back(rag::random_state(shape.m, shape.n, rng, 0.5,
                                         i % 2 == 0 ? 0.15 : 1.5 / shape.n));
    deadlock::SoftwarePdda pdda;
    hw::Ddu ddu(shape.m, shape.n);
    (void)pdda.detect(states[0]);
    ddu.load(states[0]);
    (void)ddu.run();
    std::size_t pdda_deadlocks = 0, ddu_deadlocks = 0;
    before = allocations_so_far();
    for (int i = 0; i < 1000; ++i)
      pdda_deadlocks += pdda.detect(states[i % 16]);
    const std::uint64_t pdda_allocations = allocations_so_far() - before;
    before = allocations_so_far();
    for (int i = 0; i < 1000; ++i) {
      ddu.load(states[i % 16]);
      ddu_deadlocks += ddu.run().deadlock;
    }
    const std::uint64_t ddu_allocations = allocations_so_far() - before;
    EXPECT_EQ(pdda_allocations, 0u);
    EXPECT_EQ(ddu_allocations, 0u);
    EXPECT_EQ(pdda_deadlocks, ddu_deadlocks);
  }
}

}  // namespace
}  // namespace delta::soc

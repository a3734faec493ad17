#include "exp/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "exp/json.h"
#include "exp/workloads.h"

namespace delta::exp {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.configs = {preset_point(soc::RtosPreset::kRtos4),
                  preset_point(soc::RtosPreset::kRtos5)};
  for (ConfigPoint& cp : spec.configs)
    cp.config.stop_on_deadlock = false;
  spec.workloads = {mixed_workload(), random_workload()};
  spec.seeds = {1, 2};
  spec.run_limit = 5'000'000;
  return spec;
}

TEST(Sweep, ExpandIsTheOrderedCrossProduct) {
  const SweepSpec spec = small_spec();
  const std::vector<RunSpec> runs = expand(spec);
  ASSERT_EQ(runs.size(), 2u * 2u * 2u);
  // config-major, then workload, then seed.
  EXPECT_EQ(runs[0].config->name, "RTOS4");
  EXPECT_EQ(runs[0].workload->name, "mixed");
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_EQ(runs[1].seed, 2u);
  EXPECT_EQ(runs[2].workload->name, "random");
  EXPECT_EQ(runs[4].config->name, "RTOS5");
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].index, i);
}

TEST(Sweep, RunSeedsDependOnEveryCoordinate) {
  std::set<std::uint64_t> seeds;
  for (std::size_t ci = 0; ci < 3; ++ci)
    for (std::size_t wi = 0; wi < 3; ++wi)
      for (std::uint64_t s = 0; s < 3; ++s)
        seeds.insert(derive_run_seed(7, ci, wi, s));
  EXPECT_EQ(seeds.size(), 27u);  // no collisions across the cube
  // Pure function: same cell, same seed.
  EXPECT_EQ(derive_run_seed(7, 1, 2, 3), derive_run_seed(7, 1, 2, 3));
  // Base seed shifts everything.
  EXPECT_NE(derive_run_seed(7, 1, 2, 3), derive_run_seed(8, 1, 2, 3));
}

TEST(Runner, JsonIsByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = small_spec();

  RunnerOptions serial;
  serial.threads = 1;
  const SweepReport a = run_sweep(spec, serial);
  ASSERT_EQ(a.failed(), 0u);

  RunnerOptions pooled;
  pooled.threads = 4;
  const SweepReport b = run_sweep(spec, pooled);
  const SweepReport c = run_sweep(spec, pooled);

  const std::string ja = report_to_json(spec, a);
  EXPECT_EQ(ja, report_to_json(spec, b));
  EXPECT_EQ(ja, report_to_json(spec, c));
  EXPECT_NE(ja.find("\"aggregates\""), std::string::npos);
}

TEST(Runner, DifferentSeedsProduceDifferentRuns) {
  SweepSpec spec = small_spec();
  spec.configs = {spec.configs[0]};
  spec.workloads = {mixed_workload()};
  const SweepReport r = run_sweep(spec, {});
  ASSERT_EQ(r.runs.size(), 2u);
  EXPECT_NE(r.runs[0].run_seed, r.runs[1].run_seed);
  // The jittered workload must actually change the simulated timeline.
  EXPECT_NE(r.runs[0].last_finish, r.runs[1].last_finish);
}

TEST(Runner, ResultsLandAtTheirExpansionIndex) {
  const SweepSpec spec = small_spec();
  RunnerOptions opt;
  opt.threads = 3;
  std::atomic<std::size_t> seen{0};
  opt.on_result = [&](const RunResult&) { ++seen; };
  const SweepReport r = run_sweep(spec, opt);
  EXPECT_EQ(seen.load(), r.runs.size());
  const std::vector<RunSpec> runs = expand(spec);
  ASSERT_EQ(r.runs.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(r.runs[i].config, runs[i].config->name) << i;
    EXPECT_EQ(r.runs[i].workload, runs[i].workload->name) << i;
    EXPECT_EQ(r.runs[i].seed, runs[i].seed) << i;
  }
}

TEST(Runner, BadCellIsReportedNotFatal) {
  SweepSpec spec = small_spec();
  ConfigPoint broken;
  broken.name = "broken";
  broken.config.pe_count = 0;  // to_mpsoc_config() will refuse
  spec.configs.push_back(broken);
  const SweepReport r = run_sweep(spec, {});
  ASSERT_EQ(r.runs.size(), 3u * 2u * 2u);
  EXPECT_EQ(r.failed(), 4u);  // the broken config's four cells
  for (const RunResult& run : r.runs) {
    if (run.config == "broken") {
      EXPECT_FALSE(run.ok);
      EXPECT_NE(run.error.find("pe_count"), std::string::npos);
    } else {
      EXPECT_TRUE(run.ok);
    }
  }
  // Failed runs serialize with their error and are skipped in aggregates.
  const std::string json = report_to_json(spec, r);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
}

TEST(Runner, CollectsPaperMetrics) {
  SweepSpec spec;
  spec.configs = {preset_point(soc::RtosPreset::kRtos1)};
  spec.workloads = {jini_workload()};
  const SweepReport r = run_sweep(spec, {});
  ASSERT_EQ(r.runs.size(), 1u);
  const RunResult& run = r.runs[0];
  ASSERT_TRUE(run.ok);
  // The jini scenario deadlocks under detection-only configurations.
  EXPECT_TRUE(run.deadlock_detected);
  EXPECT_EQ(run.app_run_time, run.deadlock_time);
  EXPECT_GT(run.algorithm_invocations, 0u);
  EXPECT_GT(run.algorithm_avg, 0.0);

  // Allocation latency comes from workloads that touch the heap.
  SweepSpec alloc_spec;
  alloc_spec.configs = {preset_point(soc::RtosPreset::kRtos5)};
  alloc_spec.workloads = {mixed_workload()};
  const SweepReport ar = run_sweep(alloc_spec, {});
  ASSERT_TRUE(ar.runs.at(0).ok);
  EXPECT_GT(ar.runs.at(0).alloc_latency.count, 0u);
  EXPECT_GT(ar.runs.at(0).alloc_latency.mean, 0.0);
}

TEST(Workloads, RegistryKnowsEveryName) {
  for (const std::string& name : workload_names()) {
    const Workload w = find_workload(name);
    EXPECT_EQ(w.name, name);
    EXPECT_TRUE(static_cast<bool>(w.build)) << name;
  }
  EXPECT_THROW(find_workload("nope"), std::invalid_argument);
  EXPECT_THROW(find_workload("splash-nope"), std::invalid_argument);
}

}  // namespace
}  // namespace delta::exp

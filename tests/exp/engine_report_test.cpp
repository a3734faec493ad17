// Engine introspection at the exp layer: collecting per-run engine
// reports must never perturb the simulated results (strict report
// neutrality), the serialized blocks must stay byte-identical across
// thread counts, and the campaign roll-up must be order-independent.
#include "exp/runner.h"

#include <gtest/gtest.h>

#include <string>

#include "exp/json.h"
#include "exp/workloads.h"

namespace delta::exp {
namespace {

SweepSpec small_spec(bool engine_stats) {
  SweepSpec spec;
  spec.configs = {preset_point(soc::RtosPreset::kRtos4),
                  preset_point(soc::RtosPreset::kRtos6)};
  spec.workloads = {mixed_workload()};
  spec.seeds = {1, 2};
  spec.run_limit = 5'000'000;
  spec.engine_stats = engine_stats;
  return spec;
}

TEST(EngineReportExp, CollectionDoesNotPerturbSimulatedResults) {
  const SweepReport off = run_sweep(small_spec(false), {});
  const SweepReport on = run_sweep(small_spec(true), {});
  ASSERT_EQ(off.runs.size(), on.runs.size());
  ASSERT_EQ(off.failed(), 0u);
  ASSERT_EQ(on.failed(), 0u);
  for (std::size_t i = 0; i < off.runs.size(); ++i) {
    const RunResult& a = off.runs[i];
    const RunResult& b = on.runs[i];
    EXPECT_EQ(a.last_finish, b.last_finish) << i;
    EXPECT_EQ(a.app_run_time, b.app_run_time) << i;
    EXPECT_EQ(a.deadlock_detected, b.deadlock_detected) << i;
    EXPECT_EQ(a.algorithm_invocations, b.algorithm_invocations) << i;
    EXPECT_FALSE(a.engine.enabled) << i;
    EXPECT_TRUE(b.engine.enabled) << i;
  }
}

TEST(EngineReportExp, RunsCarryQueueAndKernelCounters) {
  const SweepReport r = run_sweep(small_spec(true), {});
  ASSERT_EQ(r.failed(), 0u);
  for (const RunResult& run : r.runs) {
    EXPECT_GT(run.engine.events_dispatched, 0u);
    EXPECT_GT(run.engine.queue_footprint_bytes, 0u);
    EXPECT_GT(run.engine.queue.pops, 0u);
    EXPECT_EQ(run.engine.queue.pops, run.engine.events_dispatched);
    EXPECT_GT(run.engine.queue.live_size.count, 0u);
    EXPECT_GT(run.engine.kernel.service_windows, 0u);
    const rtos::EngineCounters& k = run.engine.kernel;
    EXPECT_EQ(k.resched_calls, k.resched_fastout_in_service +
                                   k.resched_fastout_idle + k.resched_scans);
    // Host time is measured whenever collection is on (serializing it
    // is a separate, non-golden opt-in).
    EXPECT_GT(run.host_cpu_ns, 0u);
  }
}

TEST(EngineReportExp, JsonByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = small_spec(true);
  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions pooled;
  pooled.threads = 4;
  const std::string a = report_to_json(spec, run_sweep(spec, serial));
  const std::string b = report_to_json(spec, run_sweep(spec, pooled));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"engine\""), std::string::npos);
}

TEST(EngineReportExp, EngineBlocksOnlySerializedWhenEnabled) {
  const SweepSpec off = small_spec(false);
  const std::string off_json = report_to_json(off, run_sweep(off, {}));
  EXPECT_EQ(off_json.find("\"engine\""), std::string::npos);
  EXPECT_EQ(off_json.find("\"host_cpu_ns\""), std::string::npos);

  const SweepSpec on = small_spec(true);
  const std::string on_json = report_to_json(on, run_sweep(on, {}));
  EXPECT_NE(on_json.find("\"engine\""), std::string::npos);
  // Host wall-clock is nondeterministic, so it stays out of the report
  // unless explicitly requested.
  EXPECT_EQ(on_json.find("\"host_cpu_ns\""), std::string::npos);
  EXPECT_EQ(on_json.find("\"host\""), std::string::npos);

  SweepSpec host = small_spec(true);
  host.engine_host_times = true;
  const std::string host_json = report_to_json(host, run_sweep(host, {}));
  EXPECT_NE(host_json.find("\"host_cpu_ns\""), std::string::npos);
  EXPECT_NE(host_json.find("\"cpu_ns_p99\""), std::string::npos);
  EXPECT_NE(host_json.find("\"slowest\""), std::string::npos);
}

TEST(EngineReportExp, RollupMergeIsOrderIndependent) {
  // The campaign roll-up merges per-run reports in completion order;
  // byte-identity across thread counts rests on the merge being
  // commutative and associative. Fold the same runs forward and
  // backward and demand identical totals.
  const SweepReport r = run_sweep(small_spec(true), {});
  ASSERT_GE(r.runs.size(), 2u);
  soc::EngineReport fwd;
  for (const RunResult& run : r.runs) fwd.merge(run.engine);
  soc::EngineReport rev;
  for (auto it = r.runs.rbegin(); it != r.runs.rend(); ++it)
    rev.merge(it->engine);
  EXPECT_EQ(fwd.events_dispatched, rev.events_dispatched);
  EXPECT_EQ(fwd.queue_footprint_bytes, rev.queue_footprint_bytes);
  EXPECT_EQ(fwd.queue.pops, rev.queue.pops);
  EXPECT_EQ(fwd.queue.live_size.sum, rev.queue.live_size.sum);
  EXPECT_EQ(fwd.queue.footprint_peak, rev.queue.footprint_peak);
  EXPECT_EQ(fwd.kernel.service_windows, rev.kernel.service_windows);
  EXPECT_EQ(fwd.kernel.service_window_cycles.max,
            rev.kernel.service_window_cycles.max);
  // Totals genuinely aggregate (not just copy the first run).
  std::uint64_t sum = 0;
  for (const RunResult& run : r.runs) sum += run.engine.events_dispatched;
  EXPECT_EQ(fwd.events_dispatched, sum);
}

TEST(EngineReportExp, EngineTimeseriesRequiresSamplePeriod) {
  SweepSpec spec = small_spec(true);
  const SweepReport bare = run_sweep(spec, {});
  ASSERT_EQ(bare.failed(), 0u);
  EXPECT_TRUE(bare.runs[0].engine_timeseries.empty());

  spec.sample_period = 10'000;
  const SweepReport sampled = run_sweep(spec, {});
  ASSERT_EQ(sampled.failed(), 0u);
  for (const RunResult& run : sampled.runs) {
    EXPECT_FALSE(run.engine_timeseries.empty());
    EXPECT_EQ(run.engine_timeseries.period(), 10'000u);
    EXPECT_EQ(run.engine_timeseries.tracks().size(), 2u);
  }
}

}  // namespace
}  // namespace delta::exp

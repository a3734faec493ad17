// System-level sharded deadlock units: full Mpsoc runs on large
// geometries, cross-checking the sharded hardware path against the
// monolithic unit and smoking the 256x256 ceiling the paper's fixed
// 4x4/5x5 geometry never reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "soc/delta_framework.h"

namespace delta::soc {
namespace {

DeltaConfig large_config(RtosPreset preset, std::size_t geometry,
                         std::size_t clusters) {
  DeltaConfig cfg = rtos_preset(preset);
  cfg.pe_count = 16;
  cfg.resource_count = geometry;
  cfg.task_count = geometry;
  cfg.deadlock_clusters = clusters;
  return cfg;
}

// Cross-cluster workload: task i holds resource i while acquiring
// (i + stride) mod m — stride chosen so the second hop lands in another
// cluster. Acquisition is globally ordered (lower index first), so the
// workload is deadlock-free and avoidance never replays a request:
// service counts are scripted and must match across unit variants.
// Priorities are distinct, so grant arbitration never tie-breaks.
// `crossed` makes every odd task acquire in reverse order instead, which
// lets hold-and-wait chains close across clusters.
void install_ring(Mpsoc& soc, std::size_t tasks, std::size_t m,
                  std::size_t stride, bool crossed = false) {
  for (std::size_t i = 0; i < tasks; ++i) {
    rtos::Program p;
    const rtos::ResourceId a = i % m;
    const rtos::ResourceId b = (i + stride) % m;
    rtos::ResourceId first = std::min(a, b);
    rtos::ResourceId second = std::max(a, b);
    if (crossed && i % 2 == 1) std::swap(first, second);
    p.compute(200 + 50 * (i % 7))
        .request({first})
        .compute(300)
        .request({second})
        .compute(200)
        .release({first, second});
    soc.kernel().create_task("t" + std::to_string(i), i % 16,
                             static_cast<rtos::Priority>(i + 1),
                             std::move(p));
  }
}

TEST(ShardedSystem, SixtyFourGeometrySharedVsMonolithicOutcome) {
  // Same avoidance workload on the monolithic DAU and the sharded DAU:
  // both must complete every task with identical service counts.
  std::uint64_t requests[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    const DeltaConfig cfg =
        large_config(RtosPreset::kRtos4, 64, run == 0 ? 1 : 8);
    const auto soc = generate(cfg);
    install_ring(*soc, 64, 64, 9);  // stride 9 hops clusters at C=8
    soc->run(50'000'000);
    EXPECT_TRUE(soc->kernel().all_finished()) << "clusters run " << run;
    EXPECT_FALSE(soc->kernel().deadlock_detected()) << "clusters run " << run;
    requests[run] =
        soc->observer().metrics.counter("deadlock.requests").value();
  }
  EXPECT_EQ(requests[0], requests[1]);
  EXPECT_GT(requests[0], 0u);
}

// What the cost-split pins below compare, read after one run.
struct CostSplit {
  sim::Cycles finish;
  std::uint64_t invocations;
  double algorithm_cycles;
  std::uint64_t escalations;
};

CostSplit cost_split(Mpsoc& soc, const std::string& unit) {
  rtos::DeadlockStrategy& s = soc.kernel().strategy();
  return {soc.kernel().last_finish_time(), s.invocations(),
          s.algorithm_times().summary().sum(),
          soc.observer().metrics.counter_value(unit + ".escalations")};
}

void expect_cost_split(Mpsoc& soc, const std::string& unit,
                       const CostSplit& want) {
  const CostSplit got = cost_split(soc, unit);
  const std::string where = soc.kernel().strategy().name();
  EXPECT_EQ(got.finish, want.finish) << where;
  EXPECT_EQ(got.invocations, want.invocations) << where;
  EXPECT_EQ(got.algorithm_cycles, want.algorithm_cycles) << where;
  EXPECT_EQ(got.escalations, want.escalations) << where;
}

TEST(ShardedSystem, ContendedCrossClusterCostSplitIsPinned) {
  // The sharded and monolithic units decide identically but split their
  // cost differently: the sharded unit's escalated residues run as
  // software on the invoking PE. Pin the finish time, the strategy
  // invocations, the summed algorithm time and the escalation count of
  // each unit shape on a contended cross-cluster workload.
  struct Pin {
    RtosPreset preset;
    std::size_t clusters;
    CostSplit want;
  };
  const Pin pins[] = {
      {RtosPreset::kRtos2, 1, {27'732, 256, 397, 0}},
      {RtosPreset::kRtos2, 8, {30'691'999, 256, 256, 247}},
      {RtosPreset::kRtos4, 1, {29'698, 256, 1'312, 0}},
      {RtosPreset::kRtos4, 8, {8'734'168, 256, 8'705'782, 72}},
  };
  for (const Pin& pin : pins) {
    const auto soc = generate(large_config(pin.preset, 64, pin.clusters));
    install_ring(*soc, 64, 64, 9, /*crossed=*/true);
    soc->run(50'000'000);
    EXPECT_TRUE(soc->kernel().all_finished()) << "C=" << pin.clusters;
    expect_cost_split(
        *soc, pin.preset == RtosPreset::kRtos2 ? "sharded_ddu" : "sharded_dau",
        pin.want);
  }
}

TEST(ShardedSystem, GiveUpCostSplitIsPinned) {
  // Two pairs of tasks crossing requests across clusters 0/1 and 1/2:
  // the DAU asks for give-ups, so the release and retry paths run too.
  // The sharded unit's residue delays the victims enough that it takes
  // two more commands than the monolithic unit to settle.
  const std::pair<std::size_t, CostSplit> pins[] = {
      {1, {6'620, 20, 122, 0}},
      {8, {518'668, 22, 511'996, 16}},
  };
  for (const auto& [clusters, want] : pins) {
    const auto soc = generate(large_config(RtosPreset::kRtos4, 64, clusters));
    for (rtos::ResourceId k = 0; k < 2; ++k) {
      const rtos::ResourceId r0 = 8 * k, r1 = 8 * k + 9;
      rtos::Program a;
      a.request({r0}).compute(5000).request({r1}).compute(100).release(
          {r0, r1});
      rtos::Program b;
      b.request({r1}).compute(5000).request({r0}).compute(100).release(
          {r0, r1});
      const auto pe = static_cast<std::size_t>(2 * k);
      soc->kernel().create_task("a" + std::to_string(k), pe,
                                static_cast<rtos::Priority>(pe + 1),
                                std::move(a));
      soc->kernel().create_task("b" + std::to_string(k), pe + 1,
                                static_cast<rtos::Priority>(pe + 2),
                                std::move(b));
    }
    soc->run(50'000'000);
    EXPECT_TRUE(soc->kernel().all_finished()) << "C=" << clusters;
    expect_cost_split(*soc, "sharded_dau", want);
  }
}

TEST(ShardedSystem, ShardedDetectionHaltsOnCrossClusterDeadlock) {
  // Two tasks crossing requests on resources 0 and 9 (clusters 0 and 1
  // at C=8): the sharded DDU must detect through the resolver exactly
  // like the monolithic unit.
  for (std::size_t clusters : {std::size_t{1}, std::size_t{8}}) {
    DeltaConfig cfg = large_config(RtosPreset::kRtos2, 64, clusters);
    const auto soc = generate(cfg);
    rtos::Program a;
    a.request({0}).compute(5000).request({9}).compute(100).release({0, 9});
    rtos::Program b;
    b.request({9}).compute(5000).request({0}).compute(100).release({0, 9});
    soc->kernel().create_task("a", 0, 1, std::move(a));
    soc->kernel().create_task("b", 1, 2, std::move(b));
    soc->run(50'000'000);
    EXPECT_TRUE(soc->kernel().deadlock_detected()) << "C=" << clusters;
    EXPECT_FALSE(soc->kernel().all_finished()) << "C=" << clusters;
  }
}

TEST(ShardedSystem, TwoFiftySixByTwoFiftySixSmoke) {
  // The scaling ceiling: a 256x256 sharded DAU system constructs, runs a
  // contended cross-cluster workload, and settles with every task done.
  const DeltaConfig cfg = large_config(RtosPreset::kRtos4, 256, 16);
  const auto soc = generate(cfg);
  install_ring(*soc, 96, 256, 17);  // stride 17 crosses 16-wide clusters
  soc->run(100'000'000);
  EXPECT_TRUE(soc->kernel().all_finished());
  EXPECT_GT(soc->observer().metrics.counter("deadlock.requests").value(),
            0u);
}

TEST(ShardedSystem, ShardedHdlForLargeGeometryStaysBounded) {
  // 64x64 C=8 emits eight 8x8 DAU modules, not one 64x64 giant.
  DeltaConfig cfg = large_config(RtosPreset::kRtos4, 64, 8);
  const auto files = generate_hdl(cfg);
  std::size_t cluster_units = 0;
  for (const auto& f : files)
    if (f.name.rfind("dau_c", 0) == 0) ++cluster_units;
  EXPECT_EQ(cluster_units, 8u);
}

}  // namespace
}  // namespace delta::soc

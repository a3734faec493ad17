#include "soc/mpsoc.h"

#include <gtest/gtest.h>

#include <vector>

#include "soc/delta_framework.h"

namespace delta::soc {
namespace {

TEST(Mpsoc, DefaultConfigConstructs) {
  Mpsoc soc{MpsocConfig{}};
  EXPECT_EQ(soc.config().pe_count, 4u);
  EXPECT_EQ(soc.kernel().config().resource_count, 4u);
  EXPECT_EQ(soc.bus().masters(), 5u);  // 4 PEs + hardware units port
}

TEST(Mpsoc, RejectsDegenerateConfig) {
  MpsocConfig cfg;
  cfg.pe_count = 0;
  EXPECT_THROW(Mpsoc{cfg}, std::invalid_argument);
  MpsocConfig cfg2;
  cfg2.resources.clear();
  EXPECT_THROW(Mpsoc{cfg2}, std::invalid_argument);
}

TEST(Mpsoc, ResourceLookupByName) {
  Mpsoc soc{MpsocConfig{}};
  EXPECT_EQ(soc.resource("VI"), 0u);
  EXPECT_EQ(soc.resource("IDCT"), 1u);
  EXPECT_EQ(soc.resource("DSP"), 2u);
  EXPECT_EQ(soc.resource("WI"), 3u);
  EXPECT_THROW((void)soc.resource("FPU"), std::invalid_argument);
}

TEST(Mpsoc, PaperProcessingTimes) {
  Mpsoc soc{MpsocConfig{}};
  // §5.3: the 64x64 test frame takes ~23,600 cycles in the IDCT.
  EXPECT_EQ(soc.processing_cycles(soc.resource("IDCT")), 23600u);
}

TEST(Mpsoc, RunExecutesWorkload) {
  Mpsoc soc{MpsocConfig{}};
  rtos::Program p;
  p.compute(500);
  soc.kernel().create_task("t", 0, 1, std::move(p));
  const sim::Cycles end = soc.run();
  EXPECT_TRUE(soc.kernel().all_finished());
  EXPECT_GE(end, 500u);
}

TEST(Mpsoc, EachDeadlockComponentBuilds) {
  for (DeadlockComponent d :
       {DeadlockComponent::kNone, DeadlockComponent::kPddaSoftware,
        DeadlockComponent::kDdu, DeadlockComponent::kDaaSoftware,
        DeadlockComponent::kDau}) {
    MpsocConfig cfg;
    cfg.deadlock = d;
    Mpsoc soc{cfg};
    rtos::Program p;
    p.request({0}).compute(100).release({0});
    soc.kernel().create_task("t", 0, 1, std::move(p));
    soc.run();
    EXPECT_TRUE(soc.kernel().all_finished());
  }
}

TEST(Mpsoc, DeadlockUnitSizedFivebyFive) {
  // The paper's units are 5x5 even though the SoC has 4 devices (§5.3).
  MpsocConfig cfg;
  cfg.deadlock = DeadlockComponent::kDau;
  Mpsoc soc{cfg};
  ASSERT_NE(soc.kernel().strategy().state(), nullptr);
  EXPECT_EQ(soc.kernel().strategy().state()->resources(), 5u);
  EXPECT_EQ(soc.kernel().strategy().state()->processes(), 5u);
}

TEST(Mpsoc, LockAndMemoryComponentsSelectable) {
  MpsocConfig cfg;
  cfg.lock = LockComponent::kSoclc;
  cfg.memory = MemoryComponent::kSocdmmu;
  Mpsoc soc{cfg};
  rtos::Program p;
  p.lock(0).compute(50).unlock(0).alloc(70000, "x").free("x");
  soc.kernel().create_task("t", 0, 1, std::move(p));
  soc.run();
  EXPECT_TRUE(soc.kernel().all_finished());
  EXPECT_EQ(soc.kernel().memory().name(), "SoCDMMU");
}

/// What one run of the three-resource program leaves behind.
struct ThreeResourceRun {
  std::size_t held_mid = 0;   ///< resources task a held after its request
  std::size_t grants_mid = 0; ///< grant edges of task a in the strategy
  bool finished = false;
  std::size_t held_after = 0;
  std::size_t edges_after = 0;
  sim::Cycles end = 0;
  std::uint64_t events = 0;
  std::uint64_t dl_requests = 0;
  std::uint64_t dl_releases = 0;
  std::vector<obs::PhaseChange> transitions;
};

/// Task a requests IDCT, DSP and WI in one op, holds them over a compute
/// and releases them in one op; task b asks for DSP meanwhile and gets it
/// from that release. Every in-repo program names at most two resources
/// per op, so this is the one that spills the inline resource list.
ThreeResourceRun run_three_resource_op(RtosPreset preset, bool from_vector) {
  Mpsoc soc(rtos_preset(preset).to_mpsoc_config());
  rtos::Kernel& k = soc.kernel();
  const std::vector<rtos::ResourceId> three = {
      soc.resource("IDCT"), soc.resource("DSP"), soc.resource("WI")};
  ThreeResourceRun r;
  rtos::Program a;
  a.compute(100);
  if (from_vector)
    a.request(three);
  else
    a.request({soc.resource("IDCT"), soc.resource("DSP"), soc.resource("WI")});
  a.call([&r, &three](rtos::Kernel& kk, rtos::Task& t) {
    r.held_mid = t.held.size();
    for (rtos::ResourceId res : three)
      r.grants_mid += kk.strategy().state()->at(res, t.id) == rag::Edge::kGrant;
  });
  a.compute(2000);
  if (from_vector)
    a.release(three);
  else
    a.release({soc.resource("IDCT"), soc.resource("DSP"), soc.resource("WI")});
  a.compute(100);
  rtos::Program b;
  b.compute(400).request({soc.resource("DSP")}).compute(300).release(
      {soc.resource("DSP")});
  k.create_task("a", 0, 1, std::move(a));
  k.create_task("b", 1, 2, std::move(b));
  r.end = soc.run();
  r.finished = k.all_finished();
  r.held_after = k.task(0).held.size() + k.task(1).held.size();
  r.edges_after = k.strategy().state()->edge_count();
  r.events = soc.simulator().events_dispatched();
  r.dl_requests = soc.observer().metrics.counter("deadlock.requests").value();
  r.dl_releases = soc.observer().metrics.counter("deadlock.releases").value();
  r.transitions = k.transitions();
  return r;
}

TEST(Mpsoc, ThreeResourceOpIsGrantedHeldAndReleased) {
  // RTOS1 detects deadlock (PDDA), RTOS3 avoids it (DAA).
  for (RtosPreset preset : {RtosPreset::kRtos1, RtosPreset::kRtos3}) {
    SCOPED_TRACE(to_string(preset));
    const ThreeResourceRun v = run_three_resource_op(preset, true);
    EXPECT_EQ(v.held_mid, 3u);
    EXPECT_EQ(v.grants_mid, 3u);
    EXPECT_TRUE(v.finished);
    EXPECT_EQ(v.held_after, 0u);
    EXPECT_EQ(v.edges_after, 0u);
    EXPECT_EQ(v.dl_requests, 4u);
    EXPECT_EQ(v.dl_releases, 4u);

    // The same program built from an initializer list runs identically.
    const ThreeResourceRun l = run_three_resource_op(preset, false);
    EXPECT_EQ(l.held_mid, v.held_mid);
    EXPECT_EQ(l.grants_mid, v.grants_mid);
    EXPECT_EQ(l.finished, v.finished);
    EXPECT_EQ(l.end, v.end);
    EXPECT_EQ(l.events, v.events);
    EXPECT_EQ(l.dl_requests, v.dl_requests);
    EXPECT_EQ(l.dl_releases, v.dl_releases);
    ASSERT_EQ(l.transitions.size(), v.transitions.size());
    for (std::size_t i = 0; i < v.transitions.size(); ++i) {
      EXPECT_EQ(l.transitions[i].time, v.transitions[i].time) << i;
      EXPECT_EQ(l.transitions[i].task, v.transitions[i].task) << i;
      EXPECT_EQ(l.transitions[i].to, v.transitions[i].to) << i;
    }
  }
}

}  // namespace
}  // namespace delta::soc

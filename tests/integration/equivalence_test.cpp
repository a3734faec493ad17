// Cross-implementation equivalence properties:
//  * the DAU's decisions == the reference DaaEngine driven by the exact
//    reduction (hardware == software semantics, only timing differs);
//  * the configuration-file path produces systems that behave identically
//    to directly constructed ones.
#include <gtest/gtest.h>

#include "apps/deadlock_apps.h"
#include "deadlock/daa.h"
#include "hw/dau.h"
#include "rag/reduction.h"
#include "sim/random.h"
#include "soc/config_io.h"

namespace delta {
namespace {

using deadlock::DaaEngine;
using deadlock::RequestResult;
using rag::ProcId;
using rag::ResId;

class DauEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DauEquivalenceTest, DauMatchesReferenceEngineDecisionForDecision) {
  const std::size_t k = 5;
  hw::Dau dau(k, k);
  DaaEngine ref(k, k, [](const rag::StateMatrix& s) {
    return rag::has_deadlock(s);
  });
  sim::Rng rng(GetParam());

  for (int step = 0; step < 600; ++step) {
    const ProcId p = rng.below(k);
    const ResId q = rng.below(k);
    if (rng.chance(0.45)) {
      if (dau.state().at(q, p) != rag::Edge::kGrant) continue;
      EXPECT_EQ(dau.release(p, q), ref.release(p, q)) << "step " << step;
    } else {
      if (dau.state().at(q, p) != rag::Edge::kNone) continue;
      const RequestResult rr = ref.request(p, q);
      EXPECT_EQ(dau.request(p, q), rr) << "step " << step;
      // Comply with asks identically on both sides to stay in lockstep.
      for (ResId give : rr.asked_resources) {
        dau.release(rr.asked, give);
        ref.release(rr.asked, give);
      }
    }
    ASSERT_EQ(dau.state(), ref.state()) << "diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DauEquivalenceTest,
                         ::testing::Values(7001, 7002, 7003, 7004, 7005));

TEST(ConfigFlow, ParsedConfigBehavesLikeDirectPreset) {
  // Round-trip RTOS4 through the config file format and run the full
  // R-dl scenario on both instances: identical measurements.
  auto direct = soc::generate(soc::rtos_preset(soc::RtosPreset::kRtos4));
  apps::build_rdl_app(*direct);
  const apps::DeadlockAppReport a = apps::run_deadlock_app(*direct);

  const soc::DeltaConfig parsed =
      soc::read_config(soc::write_config(soc::rtos_preset(soc::RtosPreset::kRtos4)));
  auto from_file = soc::generate(parsed);
  apps::build_rdl_app(*from_file);
  const apps::DeadlockAppReport b = apps::run_deadlock_app(*from_file);

  EXPECT_EQ(a.app_run_time, b.app_run_time);
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_DOUBLE_EQ(a.algorithm_avg_cycles, b.algorithm_avg_cycles);
  EXPECT_EQ(a.all_finished, b.all_finished);
}

TEST(ConfigFlow, EveryPresetRoundTripsBehaviour) {
  // Weaker cross-check over all presets with the G-dl scenario (presets
  // 1/2 halt on the deadlock; 3/4 avoid it; 5/6/7 run unmanaged).
  for (int preset = 1; preset <= 7; ++preset) {
    soc::DeltaConfig cfg = soc::rtos_preset(soc::rtos_preset_from_int(preset));
    auto direct = soc::generate(cfg);
    auto roundtrip = soc::generate(soc::read_config(soc::write_config(cfg)));
    apps::build_gdl_app(*direct);
    apps::build_gdl_app(*roundtrip);
    const apps::DeadlockAppReport a = apps::run_deadlock_app(*direct);
    const apps::DeadlockAppReport b = apps::run_deadlock_app(*roundtrip);
    EXPECT_EQ(a.app_run_time, b.app_run_time) << "RTOS" << preset;
    EXPECT_EQ(a.deadlock_detected, b.deadlock_detected) << "RTOS" << preset;
  }
}

}  // namespace
}  // namespace delta

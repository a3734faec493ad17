#include "soc/mpsoc.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace delta::soc

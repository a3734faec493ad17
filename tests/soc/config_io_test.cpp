#include "soc/config_io.h"

#include <gtest/gtest.h>

namespace delta::soc {
namespace {

TEST(ConfigIo, RoundTripAllPresets) {
  for (int i = 1; i <= 7; ++i) {
    const DeltaConfig original = rtos_preset(rtos_preset_from_int(i));
    const DeltaConfig parsed = read_config(write_config(original));
    EXPECT_EQ(parsed.cpu_type, original.cpu_type) << i;
    EXPECT_EQ(parsed.pe_count, original.pe_count) << i;
    EXPECT_EQ(parsed.task_count, original.task_count) << i;
    EXPECT_EQ(parsed.resource_count, original.resource_count) << i;
    EXPECT_EQ(parsed.deadlock, original.deadlock) << i;
    EXPECT_EQ(parsed.lock, original.lock) << i;
    EXPECT_EQ(parsed.memory, original.memory) << i;
    EXPECT_EQ(parsed.soclc.short_locks, original.soclc.short_locks) << i;
    EXPECT_EQ(parsed.socdmmu.total_blocks, original.socdmmu.total_blocks)
        << i;
    EXPECT_EQ(parsed.stop_on_deadlock, original.stop_on_deadlock) << i;
    EXPECT_TRUE(parsed.validate().empty()) << i;
  }
}

TEST(ConfigIo, ParsesHandWrittenFile) {
  const DeltaConfig cfg = read_config(R"(
# my custom system
cpu_type = ARM920
pe_count = 2
deadlock = dau
lock = soclc
soclc.short_locks = 16   # plenty
bus.data_width = 32
)");
  EXPECT_EQ(cfg.cpu_type, "ARM920");
  EXPECT_EQ(cfg.pe_count, 2u);
  EXPECT_EQ(cfg.deadlock, DeadlockComponent::kDau);
  EXPECT_EQ(cfg.lock, LockComponent::kSoclc);
  EXPECT_EQ(cfg.soclc.short_locks, 16u);
  EXPECT_EQ(cfg.bus.data_bus_width, 32u);
  // Unspecified keys keep their defaults.
  EXPECT_EQ(cfg.task_count, 5u);
  EXPECT_EQ(cfg.memory, MemoryComponent::kMallocFree);
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  const DeltaConfig cfg = read_config("\n\n# only comments\n\n");
  EXPECT_EQ(cfg.pe_count, DeltaConfig{}.pe_count);
}

TEST(ConfigIo, ErrorsCarryLineNumbers) {
  try {
    read_config("pe_count = 4\nbogus_key = 1\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(ConfigIo, RejectsMalformedValues) {
  EXPECT_THROW(read_config("pe_count = four\n"), std::invalid_argument);
  EXPECT_THROW(read_config("deadlock = banker\n"), std::invalid_argument);
  EXPECT_THROW(read_config("lock = spin\n"), std::invalid_argument);
  EXPECT_THROW(read_config("memory = tlsf\n"), std::invalid_argument);
  EXPECT_THROW(read_config("stop_on_deadlock = maybe\n"),
               std::invalid_argument);
  EXPECT_THROW(read_config("just a line\n"), std::invalid_argument);
  EXPECT_THROW(read_config("pe_count =\n"), std::invalid_argument);
  // Bus widths are `unsigned`: 2^32 + 32 must not wrap to a valid 32.
  for (const char* key : {"bus.address_width", "bus.data_width"}) {
    try {
      (void)read_config(std::string(key) + " = 4294967328\n");
      ADD_FAILURE() << key << " accepted a value above UINT_MAX";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("config line 1:"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, ParsedConfigGeneratesSystem) {
  const DeltaConfig cfg = read_config(write_config(rtos_preset(RtosPreset::kRtos4)));
  auto soc = generate(cfg);
  ASSERT_NE(soc, nullptr);
  EXPECT_NE(soc->kernel().strategy().name().find("dau"),
            std::string::npos);
}

TEST(ConfigIo, WriteIsStable) {
  const std::string a = write_config(rtos_preset(RtosPreset::kRtos6));
  EXPECT_EQ(a, write_config(read_config(a)));
}

TEST(ConfigIo, DeadlockClustersRoundTripsAndStaysOffMonolithicOutput) {
  // Monolithic configs serialize byte-identically to before the key
  // existed (golden-pinned reports embed written configs).
  const std::string mono = write_config(rtos_preset(RtosPreset::kRtos2));
  EXPECT_EQ(mono.find("deadlock_clusters"), std::string::npos);

  DeltaConfig cfg = rtos_preset(RtosPreset::kRtos2);
  cfg.resource_count = 64;
  cfg.task_count = 64;
  cfg.deadlock_clusters = 8;
  const std::string sharded = write_config(cfg);
  EXPECT_NE(sharded.find("deadlock_clusters = 8"), std::string::npos);
  const DeltaConfig parsed = read_config(sharded);
  EXPECT_EQ(parsed.deadlock_clusters, 8u);
  EXPECT_EQ(sharded, write_config(parsed));
  EXPECT_EQ(read_config("deadlock_clusters = 4\n").deadlock_clusters, 4u);
}

TEST(ConfigIo, ZooConfigsRoundTrip) {
  // Banker's with a claims table.
  DeltaConfig bank = bankers_config();
  bank.task_count = 3;
  bank.claims = {{0, 1}, {1}, {}};  // t2 claims everything (default row)
  ASSERT_TRUE(bank.validate().empty());
  const std::string btxt = write_config(bank);
  EXPECT_NE(btxt.find("deadlock = bankers"), std::string::npos);
  EXPECT_NE(btxt.find("claims.t0 = 0,1"), std::string::npos);
  EXPECT_NE(btxt.find("claims.t1 = 1"), std::string::npos);
  EXPECT_EQ(btxt.find("claims.t2"), std::string::npos);  // empty = default
  const DeltaConfig bparsed = read_config(btxt);
  EXPECT_EQ(bparsed.deadlock, DeadlockComponent::kBankers);
  EXPECT_EQ(bparsed.claims.size(), 2u);  // trailing claim-all row elided
  EXPECT_EQ(bparsed.claims[0], (std::vector<rtos::ResourceId>{0, 1}));
  EXPECT_EQ(bparsed.claims[1], (std::vector<rtos::ResourceId>{1}));
  EXPECT_EQ(btxt, write_config(bparsed));

  // WFG recovery with period and victim policy.
  const DeltaConfig wfg = wfg_recovery_config();
  ASSERT_TRUE(wfg.validate().empty());
  const std::string wtxt = write_config(wfg);
  EXPECT_NE(wtxt.find("deadlock = wfg-recovery"), std::string::npos);
  EXPECT_NE(wtxt.find("detection_period = 5000"), std::string::npos);
  EXPECT_NE(wtxt.find("victim = lowest-cost"), std::string::npos);
  const DeltaConfig wparsed = read_config(wtxt);
  EXPECT_EQ(wparsed.deadlock, DeadlockComponent::kWfgRecovery);
  EXPECT_EQ(wparsed.detection_period, 5000u);
  EXPECT_EQ(wparsed.recovery, rtos::RecoveryPolicy::kAbortLowestCost);
  EXPECT_FALSE(wparsed.stop_on_deadlock);
  EXPECT_EQ(wtxt, write_config(wparsed));
}

TEST(ConfigIo, ZooKeysStayOffPresetOutput) {
  // The Table 3 presets never carry zoo keys: their serialized form —
  // and with it every golden-pinned report — is unchanged.
  for (int i = 1; i <= 7; ++i) {
    const std::string txt = write_config(rtos_preset(rtos_preset_from_int(i)));
    EXPECT_EQ(txt.find("detection_period"), std::string::npos) << i;
    EXPECT_EQ(txt.find("victim"), std::string::npos) << i;
    EXPECT_EQ(txt.find("claims."), std::string::npos) << i;
  }
}

TEST(ConfigIo, ZooKeysRejectMalformedValues) {
  // "banker" (singular) still fails exactly as before the zoo existed.
  EXPECT_THROW(read_config("deadlock = banker\n"), std::invalid_argument);
  EXPECT_THROW(read_config("victim = scapegoat\n"), std::invalid_argument);
  EXPECT_THROW(read_config("detection_period = soon\n"),
               std::invalid_argument);
  EXPECT_THROW(read_config("claims.t0 = 1,,2\n"), std::invalid_argument);
  EXPECT_THROW(read_config("claims.tx = 1\n"), std::invalid_argument);
  EXPECT_THROW(read_config("claims.t99999 = 1\n"), std::invalid_argument);
}

TEST(ConfigIo, ZooValidationRejectsInconsistentConfigs) {
  // WFG recovery needs a scan period.
  DeltaConfig wfg = wfg_recovery_config();
  wfg.detection_period = 0;
  EXPECT_FALSE(wfg.validate().empty());
  // A scan period without the wfg-recovery component is meaningless.
  DeltaConfig stray = rtos_preset(RtosPreset::kRtos1);
  stray.detection_period = 1000;
  EXPECT_FALSE(stray.validate().empty());
  // Claims require the bankers component.
  DeltaConfig cl = rtos_preset(RtosPreset::kRtos3);
  cl.claims = {{0}};
  EXPECT_FALSE(cl.validate().empty());
  // More claim rows than task slots.
  DeltaConfig rows = bankers_config();
  rows.task_count = 1;
  rows.claims = {{0}, {1}};
  EXPECT_FALSE(rows.validate().empty());
  // Duplicate and out-of-range resource ids in a row.
  DeltaConfig dup = bankers_config();
  dup.claims = {{0, 0}};
  EXPECT_FALSE(dup.validate().empty());
  DeltaConfig oor = bankers_config();
  oor.claims = {{DeltaConfig{}.resource_count}};
  EXPECT_FALSE(oor.validate().empty());
  // A victim policy needs a detection component behind it.
  DeltaConfig av = rtos_preset(RtosPreset::kRtos3);
  av.recovery = rtos::RecoveryPolicy::kAbortLowestCost;
  EXPECT_FALSE(av.validate().empty());
}

TEST(ConfigIo, ZooConfigsGenerateTheirStrategies) {
  DeltaConfig bank = bankers_config();
  bank.claims = {{0, 1}};
  const auto bsoc = generate(read_config(write_config(bank)));
  EXPECT_NE(bsoc->kernel().strategy().name().find("bankers"),
            std::string::npos);
  const auto wsoc = generate(read_config(write_config(wfg_recovery_config())));
  EXPECT_NE(wsoc->kernel().strategy().name().find("wfg"), std::string::npos);
}

}  // namespace
}  // namespace delta::soc

// Whole-kernel property tests: random resource workloads across every
// deadlock strategy, checking liveness and accounting invariants.
#include <gtest/gtest.h>

#include "rag/oracle.h"
#include "rtos/kernel.h"
#include "sim/random.h"
#include "support/world.h"

namespace delta::rtos {
namespace {

constexpr std::size_t kPes = 4;
constexpr std::size_t kRes = 5;
constexpr std::size_t kTasks = 5;

using tests::World;

// Random acquire-use-release rounds; request order is randomized, which
// manufactures deadlock opportunities.
void build_random_workload(Kernel& k, sim::Rng& rng) {
  for (TaskId t = 0; t < kTasks; ++t) {
    Program p;
    const int rounds = 2 + static_cast<int>(rng.below(3));
    for (int r = 0; r < rounds; ++r) {
      // Pick 1-2 distinct resources.
      std::vector<ResourceId> rs;
      rs.push_back(rng.below(kRes));
      if (rng.chance(0.6)) {
        const ResourceId extra = rng.below(kRes);
        if (extra != rs[0]) rs.push_back(extra);
      }
      p.compute(50 + rng.below(400));
      if (rng.chance(0.5) && rs.size() == 2) {
        // Sequential single requests: the R-dl shape.
        p.request({rs[0]})
            .compute(50 + rng.below(300))
            .request({rs[1]});
      } else {
        p.request(rs);
      }
      p.compute(100 + rng.below(500));
      p.release(rs);
    }
    k.create_task("t" + std::to_string(t), t % kPes,
                  static_cast<Priority>(t + 1), std::move(p),
                  rng.below(800));
  }
}

void check_consistency(Kernel& k) {
  // Kernel-held sets and strategy state must agree.
  const rag::StateMatrix* st = k.strategy().state();
  ASSERT_NE(st, nullptr);
  for (TaskId t = 0; t < k.task_count(); ++t) {
    for (ResourceId r : k.task(t).held)
      EXPECT_EQ(st->owner(r), t) << "task " << t << " res " << r;
  }
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, AvoidanceAlwaysCompletes) {
  for (DeadlockComponent kind :
       {DeadlockComponent::kDaaSoftware, DeadlockComponent::kDau}) {
    sim::Rng rng(GetParam());
    World w(kind, RecoveryPolicy::kNone);
    build_random_workload(*w.kernel, rng);
    w.kernel->start();
    w.sim.run(50'000'000);
    EXPECT_TRUE(w.kernel->all_finished())
        << "kind=" << static_cast<int>(kind) << " seed=" << GetParam();
    EXPECT_FALSE(w.kernel->deadlock_detected());
    ASSERT_NE(w.kernel->strategy().state(), nullptr);
    EXPECT_TRUE(w.kernel->strategy().state()->empty());
  }
}

TEST_P(FuzzTest, DetectionEitherFinishesOrCatchesDeadlock) {
  for (DeadlockComponent kind :
       {DeadlockComponent::kPddaSoftware, DeadlockComponent::kDdu}) {
    sim::Rng rng(GetParam());
    World w(kind, RecoveryPolicy::kNone);
    build_random_workload(*w.kernel, rng);
    w.kernel->start();
    w.sim.run(50'000'000);
    if (w.kernel->all_finished()) {
      EXPECT_FALSE(w.kernel->deadlock_detected());
      EXPECT_TRUE(w.kernel->strategy().state()->empty());
    } else {
      // The only legitimate way to stop early is a detected deadlock,
      // and the tracked state must really contain a cycle.
      EXPECT_TRUE(w.kernel->deadlock_detected());
      EXPECT_TRUE(rag::oracle_has_cycle(*w.kernel->strategy().state()));
    }
    check_consistency(*w.kernel);
  }
}

TEST_P(FuzzTest, DetectionWithRecoveryAlwaysCompletes) {
  for (DeadlockComponent kind :
       {DeadlockComponent::kPddaSoftware, DeadlockComponent::kDdu}) {
    sim::Rng rng(GetParam());
    World w(kind, RecoveryPolicy::kAbortLowestPriority);
    build_random_workload(*w.kernel, rng);
    w.kernel->start();
    w.sim.run(50'000'000);
    EXPECT_TRUE(w.kernel->all_finished())
        << "kind=" << static_cast<int>(kind) << " seed=" << GetParam();
    EXPECT_TRUE(w.kernel->strategy().state()->empty());
  }
}

TEST_P(FuzzTest, NoneStrategyStallsOnlyWithRealCycle) {
  sim::Rng rng(GetParam());
  World w(DeadlockComponent::kNone, RecoveryPolicy::kNone);
  build_random_workload(*w.kernel, rng);
  w.kernel->start();
  w.sim.run(50'000'000);
  if (!w.kernel->all_finished()) {
    // Unmanaged deadlock: blocked tasks must form a genuine cycle.
    EXPECT_TRUE(rag::oracle_has_cycle(*w.kernel->strategy().state()))
        << "seed=" << GetParam();
  }
  check_consistency(*w.kernel);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005,
                                           1006, 1007, 1008, 1009, 1010));

}  // namespace
}  // namespace delta::rtos

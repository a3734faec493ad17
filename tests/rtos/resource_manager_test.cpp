#include "rtos/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::rtos {
namespace {

constexpr std::size_t kRes = 5, kTasks = 5;

// Tasks 0-3 command the DAU as bus masters 0-3, task 4 as master 0.
std::unique_ptr<DeadlockStrategy> make(DeadlockComponent kind,
                                       bus::SharedBus* bus = nullptr) {
  return make_strategy(kind, kRes, kTasks, ServiceCosts{}, bus, 4);
}

constexpr DeadlockComponent kGranting[] = {DeadlockComponent::kNone,
                                           DeadlockComponent::kPddaSoftware,
                                           DeadlockComponent::kDdu};
constexpr DeadlockComponent kAvoiding[] = {DeadlockComponent::kDaaSoftware,
                                           DeadlockComponent::kDau};

TEST(GrantingStrategies, ImmediateGrantAndOwnership) {
  for (DeadlockComponent kind : kGranting) {
    auto s = make(kind);
    const ResourceEvent ev = s->request(0, 0, 0);
    EXPECT_TRUE(ev.granted) << s->name();
    EXPECT_EQ(s->owner(0), 0u) << s->name();
    EXPECT_FALSE(ev.deadlock_detected) << s->name();
  }
}

TEST(GrantingStrategies, ReleaseHandsToHighestPriorityWaiter) {
  for (DeadlockComponent kind : kGranting) {
    auto s = make(kind);
    s->request(3, 0, 0);
    s->request(2, 0, 0);
    s->request(4, 0, 0);
    const ResourceEvent ev = s->release(3, 0, 0);
    ASSERT_EQ(ev.grants.size(), 1u) << s->name();
    EXPECT_EQ(ev.grants[0].first, 2u) << s->name();
    EXPECT_EQ(s->owner(0), 2u) << s->name();
  }
}

TEST(DetectionStrategies, FlagTable4Deadlock) {
  // The Table 4 grant at t5 creates the p2/p3 cycle; both detection
  // strategies must flag it on that event (the "none" baseline must not).
  for (DeadlockComponent kind : kGranting) {
    auto s = make(kind);
    s->request(0, 1, 0);   // p1 takes IDCT
    s->request(0, 0, 0);   // p1 takes VI
    s->request(2, 1, 0);   // p3 waits IDCT
    s->request(2, 3, 0);   // p3 takes WI
    s->request(1, 1, 0);   // p2 waits IDCT
    ResourceEvent ev = s->request(1, 3, 0);  // p2 waits WI
    EXPECT_FALSE(ev.deadlock_detected) << s->name();
    ev = s->release(0, 1, 0);  // IDCT -> p2: deadlock!
    if (kind == DeadlockComponent::kNone) {
      EXPECT_FALSE(ev.deadlock_detected);
    } else {
      EXPECT_TRUE(ev.deadlock_detected) << s->name();
    }
  }
}

TEST(DetectionStrategies, AlgorithmTimesSampled) {
  auto sw = make(DeadlockComponent::kPddaSoftware);
  auto hwu = make(DeadlockComponent::kDdu);
  sw->request(0, 0, 0);
  hwu->request(0, 0, 0);
  EXPECT_EQ(sw->invocations(), 1u);
  EXPECT_EQ(hwu->invocations(), 1u);
  // Software detection is orders of magnitude slower.
  EXPECT_GT(sw->algorithm_times().mean(),
            100 * hwu->algorithm_times().mean());
}

TEST(DduStrategy, UsesBusForCellUpdates) {
  bus::SharedBus bus(5);
  auto s = make(DeadlockComponent::kDdu, &bus);
  s->request(0, 0, 0);
  EXPECT_GT(bus.total_transactions(), 0u);
}

TEST(AvoidanceStrategies, GrantAndPending) {
  for (DeadlockComponent kind : kAvoiding) {
    auto s = make(kind);
    EXPECT_TRUE(s->request(0, 0, 0).granted) << s->name();
    const ResourceEvent ev = s->request(1, 0, 0);
    EXPECT_FALSE(ev.granted) << s->name();
    EXPECT_EQ(s->owner(0), 0u) << s->name();
  }
}

TEST(AvoidanceStrategies, GdlAvoidedByLowerPriorityGrant) {
  for (DeadlockComponent kind : kAvoiding) {
    auto s = make(kind);
    s->request(0, 0, 0);
    s->request(0, 1, 0);
    s->request(2, 1, 0);
    s->request(2, 3, 0);
    s->request(1, 1, 0);
    s->request(1, 3, 0);
    s->release(0, 0, 0);
    const ResourceEvent ev = s->release(0, 1, 0);
    ASSERT_EQ(ev.grants.size(), 1u) << s->name();
    EXPECT_EQ(ev.grants[0].first, 2u) << s->name();  // p3, not p2
    EXPECT_TRUE(ev.g_dl) << s->name();
    ASSERT_NE(s->state(), nullptr);
    EXPECT_FALSE(rag::oracle_has_cycle(*s->state())) << s->name();
  }
}

TEST(AvoidanceStrategies, RdlAsksOwnerToGiveUp) {
  for (DeadlockComponent kind : kAvoiding) {
    auto s = make(kind);
    s->request(0, 0, 0);
    s->request(1, 1, 0);
    s->request(2, 2, 0);
    s->request(1, 2, 0);
    s->request(2, 0, 0);
    const ResourceEvent ev = s->request(0, 1, 0);
    EXPECT_TRUE(ev.r_dl) << s->name();
    EXPECT_EQ(ev.asked, 1u) << s->name();
    ASSERT_EQ(ev.ask_give_up.size(), 1u) << s->name();
    EXPECT_EQ(ev.ask_give_up[0], 1u) << s->name();
  }
}

TEST(AvoidanceStrategies, SafetyUnderRandomWorkload) {
  for (DeadlockComponent kind : kAvoiding) {
    sim::Rng rng(404);
    auto s = make(kind);
    for (int step = 0; step < 300; ++step) {
      const rag::ProcId p = rng.below(kTasks);
      const rag::ResId q = rng.below(kRes);
      ResourceEvent ev;
      if (rng.chance(0.45)) {
        if (s->owner(q) != p) continue;
        ev = s->release(p, q, 0);
      } else {
        if (s->state()->at(q, p) != rag::Edge::kNone) continue;
        ev = s->request(p, q, 0);
      }
      if (ev.asked != kNoTask) {
        for (ResourceId give : ev.ask_give_up) {
          const ResourceEvent rel = s->release(ev.asked, give, 0);
          (void)rel;
        }
      }
      ASSERT_FALSE(rag::oracle_has_cycle(*s->state()))
          << s->name() << " step " << step;
    }
  }
}

// Every field of two events but their cycle costs.
testing::AssertionResult same_decision(const ResourceEvent& a,
                                       const ResourceEvent& b) {
  if (a.granted == b.granted && a.deadlock_detected == b.deadlock_detected &&
      std::equal(a.grants.begin(), a.grants.end(), b.grants.begin(),
                 b.grants.end()) &&
      a.asked == b.asked && a.ask_give_up == b.ask_give_up &&
      a.r_dl == b.r_dl && a.g_dl == b.g_dl && a.livelock == b.livelock)
    return testing::AssertionSuccess();
  const auto show = [](const ResourceEvent& e) {
    std::string s = "granted=" + std::to_string(e.granted) +
                    " grants=" + std::to_string(e.grants.size()) +
                    " asked=" + std::to_string(e.asked) + " give_up=[";
    for (ResourceId r : e.ask_give_up) s += std::to_string(r) + ",";
    return s + "] r_dl=" + std::to_string(e.r_dl) +
           " g_dl=" + std::to_string(e.g_dl) +
           " livelock=" + std::to_string(e.livelock);
  };
  return testing::AssertionFailure() << show(a) << " vs " << show(b);
}

// The software DAA, the DAU and the two-cluster DAU run one DaaEngine, so
// one seeded request/release stream must get the same decisions from all
// three, reported the same way. Give-up asks are obeyed only some of the
// time, as a slow victim would: livelock-idled resources then take fresh
// requests that re-run arbitration on the request path.
TEST(AvoidanceStrategies, DaaAndBothDauShapesReportEqualEvents) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    sim::Rng rng(seed);
    const std::size_t m = 3 + rng.below(5), n = 3 + rng.below(5);
    std::unique_ptr<DeadlockStrategy> s[] = {
        make_strategy(DeadlockComponent::kDaaSoftware, m, n, ServiceCosts{}),
        make_strategy(DeadlockComponent::kDau, m, n, ServiceCosts{}),
        make_strategy(DeadlockComponent::kDau, m, n, ServiceCosts{}, nullptr,
                      1, 2)};
    std::vector<ResourceId> starved;
    std::vector<std::pair<TaskId, std::vector<ResourceId>>> asks;
    // One call on all three; the software DAA's event steers the stream.
    const auto step = [&](const auto& call, ResourceId res) {
      const ResourceEvent ev = call(*s[0]);
      for (int i = 1; i < 3; ++i) {
        testing::AssertionResult same = same_decision(ev, call(*s[i]));
        if (!same)
          return same << " (" << s[i]->name() << ", seed " << seed << ")";
      }
      if (ev.livelock &&
          std::find(starved.begin(), starved.end(), res) == starved.end())
        starved.push_back(res);
      if (ev.asked != kNoTask && !ev.ask_give_up.empty() && rng.chance(0.3))
        asks.emplace_back(ev.asked, ev.ask_give_up);
      return testing::AssertionSuccess();
    };
    for (int op = 0; op < 400; ++op) {
      const TaskId p = rng.below(n);
      const ResourceId q = rng.below(m);
      if (rng.chance(0.45)) {
        if (s[0]->owner(q) != p) continue;
        ASSERT_TRUE(step([&](DeadlockStrategy& x) { return x.release(p, q, 0); },
                         q));
      } else {
        if (s[0]->state()->at(q, p) != rag::Edge::kNone) continue;
        ASSERT_TRUE(step([&](DeadlockStrategy& x) { return x.request(p, q, 0); },
                         q));
      }
      // Obey the asks the kernel's give-up would: release, re-request,
      // then retry every livelock-idled resource.
      for (int budget = 0; budget < 8 && !asks.empty(); ++budget) {
        const auto [victim, give] = asks.back();
        asks.pop_back();
        std::vector<ResourceId> released;
        for (ResourceId r : give) {
          if (s[0]->owner(r) != victim) continue;
          ASSERT_TRUE(step(
              [&](DeadlockStrategy& x) { return x.release(victim, r, 0); }, r));
          released.push_back(r);
        }
        for (ResourceId r : released)
          ASSERT_TRUE(step(
              [&](DeadlockStrategy& x) { return x.request(victim, r, 0); }, r));
        const std::vector<ResourceId> retry = std::exchange(starved, {});
        for (ResourceId r : retry)
          ASSERT_TRUE(
              step([&](DeadlockStrategy& x) { return x.retry(r, 0); }, r));
      }
      asks.clear();
    }
  }
}

TEST(DauStrategy, TimingMuchCheaperThanSoftware) {
  auto sw = make(DeadlockComponent::kDaaSoftware);
  auto hwu = make(DeadlockComponent::kDau);
  // Same event sequence with a pending request (forces detection).
  for (auto* s : {sw.get(), hwu.get()}) {
    s->request(0, 0, 0);
    s->request(1, 0, 0);
  }
  EXPECT_GT(sw->algorithm_times().mean(),
            50 * hwu->algorithm_times().mean());
}

TEST(Strategies, MalformedEventsAreSafe) {
  for (DeadlockComponent kind :
       {DeadlockComponent::kNone, DeadlockComponent::kPddaSoftware,
        DeadlockComponent::kDdu, DeadlockComponent::kDaaSoftware,
        DeadlockComponent::kDau}) {
    auto s = make(kind);
    EXPECT_FALSE(s->release(0, 0, 0).grants.size() > 0) << s->name();
    s->request(0, 0, 0);
    const ResourceEvent dup = s->request(0, 0, 0);  // duplicate
    EXPECT_FALSE(dup.granted) << s->name();
    EXPECT_EQ(s->owner(0), 0u) << s->name();
  }
}

TEST(Strategies, NamesIdentifyConfiguration) {
  const auto name = [](DeadlockComponent kind, std::size_t clusters = 1) {
    return make_strategy(kind, kRes, kTasks, ServiceCosts{}, nullptr, 1,
                         clusters)
        ->name();
  };
  EXPECT_NE(name(DeadlockComponent::kPddaSoftware).find("RTOS1"),
            std::string::npos);
  EXPECT_NE(name(DeadlockComponent::kDdu).find("RTOS2"), std::string::npos);
  EXPECT_NE(name(DeadlockComponent::kDaaSoftware).find("RTOS3"),
            std::string::npos);
  EXPECT_NE(name(DeadlockComponent::kDau).find("RTOS4"), std::string::npos);
  // More than one cluster selects the sharded unit.
  EXPECT_EQ(name(DeadlockComponent::kDdu, 2), "ddu-sharded (C=2)");
  EXPECT_EQ(name(DeadlockComponent::kDau, 2), "dau-sharded (C=2)");
}

}  // namespace
}  // namespace delta::rtos

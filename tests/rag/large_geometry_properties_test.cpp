// Reduction-vs-oracle agreement at geometries well beyond the paper's
// 5x5 unit. The word-parallel reduction must keep agreeing with the DFS
// oracle when matrices span multiple 64-bit words and when the system is
// rectangular in either direction; the constructed-state guarantees
// (cycle_state always deadlocks, chain_state always fully reduces) must
// hold at every size up to 32x32.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "deadlock/bankers.h"
#include "deadlock/wfg.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta::rag {
namespace {

struct Geometry {
  std::size_t m, n;
};

const Geometry kGeometries[] = {
    {12, 12}, {16, 24}, {24, 16}, {32, 32}, {32, 8}, {8, 32}};

class LargeGeometryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LargeGeometryTest, ReductionAgreesWithOracleOnRandomStates) {
  for (const Geometry& g : kGeometries) {
    sim::Rng rng(GetParam() ^ (g.m * 131 + g.n));
    for (int i = 0; i < 50; ++i) {
      // Sparser requests at larger sizes keep both outcomes represented.
      const StateMatrix s = random_state(g.m, g.n, rng, 0.5, 0.06);
      ASSERT_EQ(has_deadlock(s), oracle_has_cycle(s))
          << g.m << "x" << g.n << " trial " << i << "\n"
          << s.to_string();
    }
  }
}

TEST_P(LargeGeometryTest, DeadlockedSetsStayConsistentAtScale) {
  for (const Geometry& g : kGeometries) {
    sim::Rng rng(GetParam() ^ (g.m * 977 + g.n));
    for (int i = 0; i < 25; ++i) {
      const StateMatrix s = random_state(g.m, g.n, rng, 0.5, 0.08);
      const auto procs = deadlocked_processes(s);
      const auto ress = deadlocked_resources(s);
      EXPECT_EQ(procs.empty(), !has_deadlock(s));
      EXPECT_EQ(procs.empty(), ress.empty());
    }
  }
}

TEST_P(LargeGeometryTest, CycleStateIsAlwaysDeadlocked) {
  sim::Rng rng(GetParam());
  for (const Geometry& g : kGeometries) {
    const std::size_t max_k = std::min(g.m, g.n);
    for (std::size_t k = 2; k <= max_k; k += 3) {
      const StateMatrix s = cycle_state(g.m, g.n, k, &rng, 0.05);
      EXPECT_TRUE(has_deadlock(s)) << g.m << "x" << g.n << " k=" << k;
      EXPECT_TRUE(oracle_has_cycle(s)) << g.m << "x" << g.n << " k=" << k;
      // The k cycle members must be among the deadlocked processes.
      const auto procs = deadlocked_processes(s);
      for (std::size_t p = 0; p < k; ++p)
        EXPECT_TRUE(std::find(procs.begin(), procs.end(), p) != procs.end())
            << g.m << "x" << g.n << " k=" << k << " missing p" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LargeGeometryTest,
                         ::testing::Values(401, 402, 403));

TEST(LargeGeometry, StaircaseChainFullyReduces) {
  for (const Geometry& g : kGeometries) {
    const StateMatrix s = chain_state(g.m, g.n);
    EXPECT_FALSE(has_deadlock(s)) << g.m << "x" << g.n;
    EXPECT_FALSE(oracle_has_cycle(s)) << g.m << "x" << g.n;
    EXPECT_TRUE(reduce(s).final.empty()) << g.m << "x" << g.n;
  }
}

TEST(LargeGeometry, WorstCaseIterationCountScalesAsTableOne) {
  // Table 1's "worst case # iterations" methodology: the constructed
  // state forces 2*(min(m,n)-2) reduction steps.
  for (const Geometry& g : kGeometries) {
    const std::size_t k = std::min(g.m, g.n);
    if (k < 4) continue;
    EXPECT_EQ(reduce(worst_case_state(g.m, g.n)).steps, 2 * (k - 2))
        << g.m << "x" << g.n;
  }
}

// Protocol-zoo properties at scale (ROADMAP item 3): the wait-for-graph
// scan and the Banker's engine must keep their contracts on geometries
// up to 64x64 and on 96 resources, whose Banker's resource bitsets span
// two 64-bit words.
const Geometry kZooGeometries[] = {
    {32, 32}, {48, 64}, {64, 48}, {64, 64}, {96, 40}};

TEST_P(LargeGeometryTest, WfgVerdictAgreesWithOracleAtScale) {
  for (const Geometry& g : kZooGeometries) {
    sim::Rng rng(GetParam() ^ (g.m * 271 + g.n));
    for (int i = 0; i < 25; ++i) {
      const StateMatrix s = random_state(g.m, g.n, rng, 0.5, 0.04);
      const deadlock::WfgScan scan = deadlock::scan_wait_for_graph(s);
      ASSERT_EQ(scan.deadlock, oracle_has_cycle(s))
          << g.m << "x" << g.n << " trial " << i << "\n" << s.to_string();
      ASSERT_EQ(scan.deadlock, !scan.deadlocked.empty());
      // The trim residue only names processes the reduction also damns.
      const auto all = deadlocked_processes(s);
      for (ProcId p : scan.deadlocked)
        ASSERT_TRUE(std::find(all.begin(), all.end(), p) != all.end())
            << g.m << "x" << g.n << " trial " << i << " p" << p;
    }
  }
}

TEST_P(LargeGeometryTest, BankersKeepsLargeGeometriesSafe) {
  // Random request/release traffic through the Banker's engine: the
  // managed state must never contain a cycle and must always pass the
  // engine's own safety probe, even at 64x64.
  for (const Geometry& g : kZooGeometries) {
    sim::Rng rng(GetParam() ^ (g.m * 613 + g.n));
    deadlock::BankersEngine e(g.m, g.n);
    // Honest claims: requests stay inside each process's declared set
    // (an undeclared request widens the claim on the fly, voiding the
    // safety guarantee by design — that path has its own test).
    std::vector<std::vector<ResId>> reach(g.n);
    for (ProcId p = 0; p < g.n; ++p) {
      std::vector<ResId> claim;
      for (ResId q = 0; q < g.m; ++q)
        if (rng.below(4) == 0) claim.push_back(q);
      e.declare_claims(p, claim);  // empty -> claims everything
      if (claim.empty())
        for (ResId q = 0; q < g.m; ++q) claim.push_back(q);
      reach[p] = std::move(claim);
    }
    std::vector<std::vector<ResId>> held(g.n);
    for (int step = 0; step < 400; ++step) {
      const ProcId p = static_cast<ProcId>(rng.below(g.n));
      if (!held[p].empty() && rng.below(3) == 0) {
        const ResId q = held[p].back();
        held[p].pop_back();
        const auto rel = e.release(p, q);
        for (const auto& [gp, gq] : rel.grants) held[gp].push_back(gq);
      } else {
        const ResId q = reach[p][rng.below(reach[p].size())];
        if (e.state().at(q, p) != Edge::kNone) continue;
        if (e.request(p, q).outcome ==
            deadlock::BankersEngine::Outcome::kGranted)
          held[p].push_back(q);
      }
    }
    EXPECT_FALSE(oracle_has_cycle(e.state())) << g.m << "x" << g.n;
    EXPECT_TRUE(e.is_safe()) << g.m << "x" << g.n;
  }
}

TEST(LargeGeometry, WorstCaseBoundsRandomStatesAt32) {
  const std::size_t bound = reduce(worst_case_state(32, 32)).steps;
  sim::Rng rng(577);
  for (int i = 0; i < 100; ++i)
    EXPECT_LE(reduce(random_state(32, 32, rng, 0.5, 0.08)).steps, bound);
}

}  // namespace
}  // namespace delta::rag

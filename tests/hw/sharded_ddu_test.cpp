// Sharded DDU: verdict-identical to the monolithic DDU, cheaper unit
// latency (cluster iteration bound) and smaller area, with software
// escalation only for cross-cluster residues.
#include <gtest/gtest.h>

#include "hw/ddu.h"
#include "hw/sharded_ddu.h"
#include "hw/synth.h"
#include "obs/metrics.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::hw {
namespace {

TEST(ShardedDdu, RunAllMatchesMonolithicOnRandomStates) {
  sim::Rng rng(2024);
  const struct { std::size_t m, n, c; } geoms[] = {
      {16, 16, 4}, {64, 64, 8}, {96, 40, 6}, {80, 130, 9}};
  for (const auto& g : geoms) {
    ShardedDdu unit(g.m, g.n, g.c);
    for (int i = 0; i < 30; ++i) {
      const rag::StateMatrix s =
          rag::random_state(g.m, g.n, rng, 0.5, 3.0 / double(g.m));
      unit.load(s);
      const ShardedDduResult r = unit.run_all();
      const DduResult mono = Ddu::evaluate(s);
      EXPECT_EQ(r.deadlock, mono.deadlock)
          << g.m << "x" << g.n << " C=" << g.c << " trial " << i;
    }
  }
}

TEST(ShardedDdu, RunEventMatchesMonolithicOnIncrementalWalks) {
  sim::Rng rng(555);
  ShardedDdu unit(64, 64, 8);
  rag::StateMatrix s(64, 64);
  std::size_t deadlocks = 0;
  for (int step = 0; step < 2500; ++step) {
    const rag::ResId q = rng.below(64);
    const rag::ProcId p = rng.below(64);
    const rag::Edge cur = s.at(q, p);
    rag::Edge next;
    if (cur == rag::Edge::kGrant) {
      next = rag::Edge::kNone;
    } else if (cur == rag::Edge::kRequest && s.owner(q) == rag::kNoProc) {
      next = rag::Edge::kGrant;
    } else if (cur == rag::Edge::kNone) {
      next = rag::Edge::kRequest;
    } else {
      continue;
    }
    s.set(q, p, next);
    unit.set_edge(q, p, next);
    if (next == rag::Edge::kNone) continue;  // releases cannot deadlock
    const ShardedDduResult r = unit.run_event(q);
    ASSERT_EQ(r.deadlock, Ddu::evaluate(s).deadlock) << "step " << step;
    ASSERT_LE(r.unit_cycles, unit.cluster_iteration_bound());
    if (r.deadlock) {
      ++deadlocks;
      s.set(q, p, cur);
      unit.set_edge(q, p, cur);
    }
  }
  EXPECT_GT(deadlocks, 0u);
}

TEST(ShardedDdu, LocalCycleIsCaughtWithoutEscalation) {
  ShardedDdu unit(64, 64, 8);
  rag::StateMatrix s(64, 64);
  s.set(2, 3, rag::Edge::kGrant);
  s.set(3, 2, rag::Edge::kGrant);
  s.set(3, 3, rag::Edge::kRequest);
  s.set(2, 2, rag::Edge::kRequest);
  unit.load(s);
  const ShardedDduResult r = unit.run_event(2);
  EXPECT_TRUE(r.deadlock);
  EXPECT_FALSE(r.escalated);
  EXPECT_EQ(r.residue_pe_cycles, 0u);
}

TEST(ShardedDdu, CrossClusterCycleEscalatesAndIsCaught) {
  // Grant q0 -> p9 (cluster 1's column block) and q9 -> p0: both edges
  // are remote, so closing the cycle must go through the resolver.
  ShardedDdu unit(64, 64, 8);
  rag::StateMatrix s(64, 64);
  s.set(0, 9, rag::Edge::kGrant);
  s.set(9, 0, rag::Edge::kGrant);
  s.set(0, 0, rag::Edge::kRequest);
  s.set(9, 9, rag::Edge::kRequest);
  unit.load(s);
  const ShardedDduResult r = unit.run_event(9);
  EXPECT_TRUE(r.deadlock);
  EXPECT_TRUE(r.escalated);
  EXPECT_GT(r.residue_pe_cycles, 0u);
  EXPECT_GT(r.residue_resources, 0u);
}

TEST(ShardedDdu, ClusterIterationBoundBeatsMonolithicBound) {
  const Ddu mono64(64, 64);
  const ShardedDdu shard64(64, 64, 8);
  EXPECT_LT(shard64.cluster_iteration_bound(), mono64.iteration_bound());
  const Ddu mono256(256, 256);
  const ShardedDdu shard256(256, 256, 16);
  EXPECT_LT(shard256.cluster_iteration_bound(), mono256.iteration_bound());
}

TEST(ShardedDdu, AreaBeatsMonolithicAtSixtyFourAndAbove) {
  EXPECT_LT(sharded_ddu_area(64, 64, 8).total(),
            ddu_area(64, 64).total());
  EXPECT_LT(sharded_ddu_area(256, 256, 16).total(),
            ddu_area(256, 256).total());
  EXPECT_LT(sharded_dau_area(64, 64, 8).total(),
            dau_area(64, 64).total());
  EXPECT_LT(sharded_dau_area(256, 256, 16).total(),
            dau_area(256, 256).total());
}

TEST(ShardedDdu, MetricsCountRunsAndEscalations) {
  obs::MetricsRegistry reg;
  ShardedDdu unit(16, 16, 4);
  unit.attach_metrics(reg);
  rag::StateMatrix s(16, 16);
  s.set(0, 5, rag::Edge::kGrant);   // remote edge (cluster 0 row, 1 col)
  s.set(5, 0, rag::Edge::kGrant);
  s.set(0, 0, rag::Edge::kRequest);
  s.set(5, 5, rag::Edge::kRequest);
  unit.load(s);
  EXPECT_TRUE(unit.run_event(0).deadlock);
  EXPECT_EQ(reg.counter("sharded_ddu.runs").value(), 1u);
  EXPECT_GE(reg.counter("sharded_ddu.escalations").value(), 1u);
}

}  // namespace
}  // namespace delta::hw

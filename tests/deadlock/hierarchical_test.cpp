// Hierarchical (sharded) detection: the ClusterMap partition contract
// and the central equivalence claim — the hierarchical verdict equals
// the monolithic oracle, both on arbitrary whole states (detect_all)
// and along incremental event walks (detect_event).
#include <gtest/gtest.h>

#include "deadlock/hierarchical.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::deadlock {
namespace {

TEST(ClusterMap, PartitionsContiguouslyAndNearEqually) {
  const ClusterMap map(64, 64, 8);
  EXPECT_EQ(map.clusters(), 8u);
  std::size_t res_total = 0, proc_total = 0;
  for (std::size_t c = 0; c < map.clusters(); ++c) {
    EXPECT_GE(map.resource_count(c), 64u / 8);
    EXPECT_LE(map.resource_count(c), 64u / 8 + 1);
    res_total += map.resource_count(c);
    proc_total += map.process_count(c);
    // Contiguity: every row in [begin, begin+count) maps back to c.
    for (std::size_t s = map.resource_begin(c);
         s < map.resource_begin(c) + map.resource_count(c); ++s)
      EXPECT_EQ(map.resource_cluster(s), c);
    for (std::size_t t = map.process_begin(c);
         t < map.process_begin(c) + map.process_count(c); ++t)
      EXPECT_EQ(map.process_cluster(t), c);
  }
  EXPECT_EQ(res_total, 64u);
  EXPECT_EQ(proc_total, 64u);
}

TEST(ClusterMap, UnevenGeometrySizesDifferByAtMostOne) {
  const ClusterMap map(13, 7, 5);
  std::size_t rmin = 13, rmax = 0, pmin = 13, pmax = 0;
  for (std::size_t c = 0; c < map.clusters(); ++c) {
    rmin = std::min(rmin, map.resource_count(c));
    rmax = std::max(rmax, map.resource_count(c));
    pmin = std::min(pmin, map.process_count(c));
    pmax = std::max(pmax, map.process_count(c));
    EXPECT_GE(map.resource_count(c), 1u);
    EXPECT_GE(map.process_count(c), 1u);
  }
  EXPECT_LE(rmax - rmin, 1u);
  EXPECT_LE(pmax - pmin, 1u);
}

TEST(ClusterMap, ClampsClusterCountToSmallerDimension) {
  EXPECT_EQ(ClusterMap(64, 3, 16).clusters(), 3u);
  EXPECT_EQ(ClusterMap(3, 64, 16).clusters(), 3u);
  EXPECT_EQ(ClusterMap(5, 5, 0).clusters(), 1u);
}

TEST(ClusterMap, DefaultClustersHeuristic) {
  // Paper-scale geometries keep their monolithic unit.
  EXPECT_EQ(ClusterMap::default_clusters(4), 1u);
  EXPECT_EQ(ClusterMap::default_clusters(5), 1u);
  EXPECT_EQ(ClusterMap::default_clusters(7), 1u);
  // Large geometries shard to ~sqrt(m).
  EXPECT_EQ(ClusterMap::default_clusters(16), 4u);
  EXPECT_EQ(ClusterMap::default_clusters(64), 8u);
  EXPECT_EQ(ClusterMap::default_clusters(256), 16u);
}

TEST(ClusterMap, LocalEdgePredicateMatchesClusterIds) {
  const ClusterMap map(16, 16, 4);
  for (std::size_t s = 0; s < 16; ++s)
    for (std::size_t t = 0; t < 16; ++t)
      EXPECT_EQ(map.local(s, t),
                map.resource_cluster(s) == map.process_cluster(t));
}

TEST(Hierarchical, DetectAllMatchesOracleOnRandomStates) {
  sim::Rng rng(7001);
  const struct { std::size_t m, n, c; } geoms[] = {
      {8, 8, 2}, {16, 16, 4}, {64, 64, 8}, {13, 29, 3}, {96, 40, 6}};
  for (const auto& g : geoms) {
    HierarchicalDetector det(ClusterMap(g.m, g.n, g.c));
    for (int i = 0; i < 40; ++i) {
      const rag::StateMatrix s =
          rag::random_state(g.m, g.n, rng, 0.5, 4.0 / double(g.m));
      const HierOutcome o = det.detect_all(s);
      EXPECT_EQ(o.deadlock, rag::oracle_has_cycle(s))
          << g.m << "x" << g.n << " C=" << g.c << " trial " << i;
    }
  }
}

TEST(Hierarchical, DetectAllFindsPlantedCycles) {
  sim::Rng rng(99);
  HierarchicalDetector det(ClusterMap(64, 64, 8));
  for (std::size_t k = 2; k <= 64; k += 7) {
    const rag::StateMatrix s = rag::cycle_state(64, 64, k, &rng, 0.01);
    const HierOutcome o = det.detect_all(s);
    EXPECT_TRUE(o.deadlock) << "cycle length " << k;
    // A cycle spanning several clusters can only be seen escalated.
    if (k > 8 + 1) {
      EXPECT_TRUE(o.escalated) << "cycle length " << k;
    }
  }
}

TEST(Hierarchical, PurelyLocalCycleNeedsNoEscalation) {
  // Cluster 0 of a 64x64 C=8 map owns rows 0..7 and columns 0..7; a
  // 2-cycle inside it must be caught by the local unit alone.
  rag::StateMatrix s(64, 64);
  s.set(0, 0, rag::Edge::kGrant);
  s.set(1, 1, rag::Edge::kGrant);
  s.set(1, 0, rag::Edge::kRequest);
  s.set(0, 1, rag::Edge::kRequest);
  HierarchicalDetector det(ClusterMap(64, 64, 8));
  const HierOutcome o = det.detect_all(s);
  EXPECT_TRUE(o.deadlock);
  EXPECT_FALSE(o.escalated);
  EXPECT_EQ(o.residue_sw_cycles, 0u);
}

TEST(Hierarchical, ChainStateStaysDeadlockFree) {
  HierarchicalDetector det(ClusterMap(64, 64, 8));
  const rag::StateMatrix s = rag::chain_state(64, 64);
  EXPECT_FALSE(det.detect_all(s).deadlock);
}

// Incremental walk: grow a well-formed state one single-row event at a
// time (exactly how the resource manager drives detection) and call
// `detect(s, q)` on the touched row after each edge-adding event. An
// event it finds deadlocking is undone, so the pre-event state stays
// deadlock-free, as the equivalence argument requires.
template <class Detect>
void incremental_walk(rag::StateMatrix& s, sim::Rng& rng, int steps,
                      Detect detect) {
  for (int step = 0; step < steps; ++step) {
    const rag::ResId q = rng.below(s.resources());
    const rag::ProcId p = rng.below(s.processes());
    const rag::Edge cur = s.at(q, p);
    if (cur == rag::Edge::kGrant) {
      s.set(q, p, rag::Edge::kNone);  // release: cannot create a cycle
      continue;
    }
    if (cur == rag::Edge::kRequest && s.owner(q) == rag::kNoProc) {
      s.set(q, p, rag::Edge::kGrant);  // grant the free resource
    } else if (cur == rag::Edge::kNone) {
      s.set(q, p, rag::Edge::kRequest);
    } else {
      continue;
    }
    if (detect(s, q, step)) s.set(q, p, cur);  // roll back
  }
}

// The walk cross-checks every verdict against the monolithic oracle.
TEST(Hierarchical, DetectEventMatchesOracleOnIncrementalWalks) {
  sim::Rng rng(31337);
  const struct { std::size_t m, n, c; } geoms[] = {
      {16, 16, 4}, {64, 64, 8}, {40, 24, 5}, {80, 130, 9}};
  for (const auto& g : geoms) {
    HierarchicalDetector det(ClusterMap(g.m, g.n, g.c));
    rag::StateMatrix s(g.m, g.n);
    std::size_t deadlocks_seen = 0;
    incremental_walk(s, rng, 3000,
                     [&](const rag::StateMatrix& st, rag::ResId q, int step) {
                       const HierOutcome o = det.detect_event(st, q);
                       EXPECT_EQ(o.deadlock, rag::oracle_has_cycle(st))
                           << g.m << "x" << g.n << " C=" << g.c << " step "
                           << step;
                       deadlocks_seen += o.deadlock ? 1 : 0;
                       return o.deadlock;
                     });
    EXPECT_GT(deadlocks_seen, 0u) << "walk never exercised a deadlock";
  }
}

// The outcome's cost fields are the sharded units' simulated cost (unit
// cycles, escalations, residue size and software cycles), so each is
// pinned exactly, summed over the incremental walk above and over
// detect_all on random states. At 80x130 a row has three bitset words
// and cluster column blocks straddle word boundaries.
struct HierSums {
  std::uint64_t deadlock = 0, escalated = 0, local_units = 0,
                local_iterations = 0, local_unit_cycles = 0,
                residue_clusters = 0, residue_resources = 0,
                residue_processes = 0, residue_sw_cycles = 0;

  void add(const HierOutcome& o) {
    deadlock += o.deadlock ? 1 : 0;
    escalated += o.escalated ? 1 : 0;
    local_units += o.local_units;
    local_iterations += o.local_iterations;
    local_unit_cycles += o.local_unit_cycles;
    residue_clusters += o.residue_clusters;
    residue_resources += o.residue_resources;
    residue_processes += o.residue_processes;
    residue_sw_cycles += o.residue_sw_cycles;
  }
};

struct HierPin {
  std::size_t m, n, c;
  HierSums walk;  // detect_event over a 3000-step walk
  HierSums all;   // detect_all over 20 + 20 random states
};

/// Random well-formed state whose edges stay inside their row's cluster
/// but for about one in 48, so a few remote edges join some clusters
/// into components and leave the others alone.
rag::StateMatrix clustered_state(const ClusterMap& map, sim::Rng& rng) {
  rag::StateMatrix s(map.resources(), map.processes());
  const auto pick = [&](rag::ResId q) -> rag::ProcId {
    if (rng.below(48) == 0) return rng.below(map.processes());
    const std::size_t c = map.resource_cluster(q);
    return map.process_begin(c) + rng.below(map.process_count(c));
  };
  for (rag::ResId q = 0; q < map.resources(); ++q)
    if (rng.chance(0.5)) s.add_grant(q, pick(q));
  for (rag::ResId q = 0; q < map.resources(); ++q)
    for (int k = 0; k < 2; ++k) {
      const rag::ProcId t = pick(q);
      if (s.at(q, t) == rag::Edge::kNone) s.add_request(t, q);
    }
  return s;
}

TEST(Hierarchical, CostsArePinnedOnRandomWalks) {
  const HierPin pins[] = {
      {16, 16, 4,
       {1213, 1672, 1674, 2280, 2283, 6685, 26740, 26740, 46057023},
       {28, 29, 160, 79, 79, 99, 396, 396, 651457}},
      {64, 64, 8,
       {471, 2620, 2621, 3242, 3300, 20931, 167448, 167448, 2644424881},
       {37, 40, 320, 116, 116, 246, 1968, 1968, 15217965}},
      {80, 130, 9,
       {233, 2840, 2841, 3519, 3600, 25521, 226852, 368637, 8021361106},
       {32, 40, 360, 113, 113, 283, 2516, 4094, 43443222}},
  };
  for (const HierPin& pin : pins) {
    SCOPED_TRACE(testing::Message() << pin.m << "x" << pin.n << " C="
                                    << pin.c);
    sim::Rng rng(0x41e5 + pin.m);
    HierarchicalDetector det(ClusterMap(pin.m, pin.n, pin.c));
    HierPin got{pin.m, pin.n, pin.c, {}, {}};
    rag::StateMatrix s(pin.m, pin.n);
    incremental_walk(s, rng, 3000,
                     [&](const rag::StateMatrix& st, rag::ResId q, int) {
                       const HierOutcome o = det.detect_event(st, q);
                       got.walk.add(o);
                       return o.deadlock;
                     });
    for (int i = 0; i < 20; ++i) {
      got.all.add(det.detect_all(
          rag::random_state(pin.m, pin.n, rng, 0.5, 4.0 / double(pin.m))));
      got.all.add(det.detect_all(clustered_state(det.map(), rng)));
    }
    for (const auto& [want, have] :
         {std::pair{pin.walk, got.walk}, std::pair{pin.all, got.all}}) {
      EXPECT_EQ(have.deadlock, want.deadlock);
      EXPECT_EQ(have.escalated, want.escalated);
      EXPECT_EQ(have.local_units, want.local_units);
      EXPECT_EQ(have.local_iterations, want.local_iterations);
      EXPECT_EQ(have.local_unit_cycles, want.local_unit_cycles);
      EXPECT_EQ(have.residue_clusters, want.residue_clusters);
      EXPECT_EQ(have.residue_resources, want.residue_resources);
      EXPECT_EQ(have.residue_processes, want.residue_processes);
      EXPECT_EQ(have.residue_sw_cycles, want.residue_sw_cycles);
    }
  }
}

}  // namespace
}  // namespace delta::deadlock

#include "hw/ddu.h"

#include <gtest/gtest.h>

#include "deadlock/pdda.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta::hw {
namespace {

using rag::StateMatrix;

TEST(Ddu, EmptyMatrixNoDeadlockOneCycle) {
  Ddu ddu(5, 5);
  const DduResult r = ddu.run();
  EXPECT_FALSE(r.deadlock);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(r.cycles, 1u);  // one evaluation to latch D
}

TEST(Ddu, CellWritesAreVisible) {
  Ddu ddu(3, 3);
  ddu.set_edge(1, 2, rag::Edge::kRequest);
  EXPECT_EQ(ddu.edge(1, 2), rag::Edge::kRequest);
  ddu.set_edge(1, 2, rag::Edge::kNone);
  EXPECT_EQ(ddu.edge(1, 2), rag::Edge::kNone);
}

TEST(Ddu, RunPreservesArchitecturalMatrix) {
  Ddu ddu(4, 4);
  ddu.load(rag::chain_state(4, 4));
  const StateMatrix before = ddu.matrix();
  ddu.run();
  EXPECT_EQ(ddu.matrix(), before);
}

TEST(Ddu, LoadRejectsWrongShape) {
  Ddu ddu(4, 4);
  EXPECT_THROW(ddu.load(StateMatrix(3, 4)), std::invalid_argument);
}

TEST(Ddu, DetectsCycle) {
  Ddu ddu(5, 5);
  ddu.load(rag::cycle_state(5, 5, 3));
  EXPECT_TRUE(ddu.run().deadlock);
}

TEST(Ddu, WorstCaseIterationsMatchTable1) {
  struct Case {
    std::size_t m, n, expect;
  };
  // Table 1 "worst case # iterations" (processes x resources).
  const Case cases[] = {{3, 2, 2}, {5, 5, 6}, {7, 7, 10},
                        {10, 10, 16}, {50, 50, 96}};
  for (const Case& c : cases) {
    const DduResult r = Ddu::evaluate(rag::worst_case_state(c.m, c.n));
    EXPECT_EQ(r.iterations, c.expect) << c.m << "x" << c.n;
    EXPECT_EQ(r.cycles, c.expect) << c.m << "x" << c.n;
  }
}

TEST(Ddu, IterationBoundHolds) {
  sim::Rng rng(55);
  for (int i = 0; i < 300; ++i) {
    const std::size_t m = 2 + rng.below(10);
    const std::size_t n = 2 + rng.below(10);
    Ddu ddu(m, n);
    const DduResult r = Ddu::evaluate(rag::random_state(m, n, rng));
    EXPECT_LE(r.cycles, ddu.iteration_bound()) << m << "x" << n;
  }
}

// Key hardware-correctness property: the cell-parallel DDU equals the
// reference reduction and the serial software PDDA on every input.
class DduEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DduEquivalenceTest, MatchesReferenceAndSoftware) {
  sim::Rng rng(GetParam());
  deadlock::SoftwarePdda pdda;
  const auto check = [&pdda](const StateMatrix& s) {
    const DduResult r = Ddu::evaluate(s);
    EXPECT_EQ(r.deadlock, rag::has_deadlock(s)) << s.to_string();
    EXPECT_EQ(r.deadlock, pdda.detect(s)) << s.to_string();
    EXPECT_EQ(r.iterations, rag::reduce(s).steps) << s.to_string();
    EXPECT_EQ(pdda.last_iterations(), r.iterations) << s.to_string();
  };
  for (int i = 0; i < 150; ++i) {
    const std::size_t m = 2 + rng.below(8);
    const std::size_t n = 2 + rng.below(8);
    check(rag::random_state(m, n, rng));
  }
  // Rows spanning a second and third 64-bit word, at about one request
  // per row so some states deadlock and some reduce away.
  const struct { std::size_t m, n; } wide[] = {{70, 70}, {65, 130}, {130, 65}};
  for (const auto& g : wide)
    for (int i = 0; i < 8; ++i)
      check(rag::random_state(g.m, g.n, rng, 0.5, 1.0 / double(g.n)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DduEquivalenceTest,
                         ::testing::Values(61, 62, 63, 64, 65, 66));

TEST(Ddu, ExhaustiveTinyEquivalence) {
  rag::for_each_small_state(3, 3, [](const StateMatrix& s) {
    ASSERT_EQ(Ddu::evaluate(s).deadlock, rag::oracle_has_cycle(s))
        << s.to_string();
  });
}

TEST(Ddu, HardwareBeatsSoftwareByOrdersOfMagnitude) {
  // The Table 5 shape: on the same states, DDU cycles are vastly fewer
  // than metered software-PDDA cycles.
  deadlock::SoftwarePdda pdda;
  sim::Rng rng(70);
  double hw = 0, sw = 0;
  for (int i = 0; i < 50; ++i) {
    const StateMatrix s = rag::random_state(5, 5, rng);
    hw += static_cast<double>(Ddu::evaluate(s).cycles);
    pdda.detect(s);
    sw += static_cast<double>(pdda.last_cycles());
  }
  EXPECT_GT(sw / hw, 100.0);
}

}  // namespace
}  // namespace delta::hw

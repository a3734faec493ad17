#include "deadlock/pdda.h"

#include <gtest/gtest.h>

#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta::deadlock {

// Printed by gtest, which finds it by argument-dependent lookup.
std::ostream& operator<<(std::ostream& os, const ReductionSummary& r) {
  return os << "{iterations " << r.iterations << ", rows "
            << r.terminal_rows << ", cols " << r.terminal_cols
            << ", remain " << r.edges_remain << " at (" << r.first_row
            << ", " << r.first_col << ")}";
}

namespace {

using rag::StateMatrix;

TEST(SoftwarePdda, EmptyStateNoDeadlock) {
  SoftwarePdda pdda;
  EXPECT_FALSE(pdda.detect(StateMatrix(5, 5)));
  EXPECT_EQ(pdda.last_iterations(), 0u);
}

TEST(SoftwarePdda, DetectsSimpleCycle) {
  SoftwarePdda pdda;
  EXPECT_TRUE(pdda.detect(rag::cycle_state(5, 5, 2)));
}

TEST(SoftwarePdda, ClearsChain) {
  SoftwarePdda pdda;
  EXPECT_FALSE(pdda.detect(rag::chain_state(5, 5)));
  EXPECT_GT(pdda.last_iterations(), 0u);
}

TEST(SoftwarePdda, MeterIsPopulated) {
  SoftwarePdda pdda;
  pdda.detect(rag::cycle_state(5, 5, 3));
  const OpMeter& m = pdda.last_meter();
  EXPECT_GT(m.loads, 0u);
  EXPECT_GT(m.stores, 0u);
  EXPECT_GT(m.alu, 0u);
  EXPECT_GT(m.branches, 0u);
  EXPECT_GT(pdda.last_cycles(), 100u);  // 5x5 detection is hundreds of ops
}

TEST(SoftwarePdda, MeterResetsBetweenRuns) {
  SoftwarePdda pdda;
  pdda.detect(rag::worst_case_state(8, 8));
  const auto big = pdda.last_meter().total();
  pdda.detect(StateMatrix(2, 2));
  const auto small = pdda.last_meter().total();
  EXPECT_LT(small, big);  // meter reflects only the most recent run
  pdda.detect(rag::worst_case_state(8, 8));
  EXPECT_EQ(pdda.last_meter().total(), big);  // identical input, same count
}

TEST(SoftwarePdda, CostGrowsWithProblemSize) {
  SoftwarePdda pdda;
  pdda.detect(rag::worst_case_state(5, 5));
  const auto small = pdda.last_cycles();
  pdda.detect(rag::worst_case_state(20, 20));
  const auto large = pdda.last_cycles();
  EXPECT_GT(large, 10 * small);  // super-linear growth (O(m*n) per pass)
}

TEST(SoftwarePdda, IterationsMatchReferenceReduction) {
  sim::Rng rng(5);
  SoftwarePdda pdda;
  for (int i = 0; i < 100; ++i) {
    const StateMatrix s = rag::random_state(6, 6, rng);
    pdda.detect(s);
    EXPECT_EQ(pdda.last_iterations(), rag::reduce(s).steps);
  }
}

// Property: software PDDA agrees with the oracle on random states.
class PddaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PddaPropertyTest, AgreesWithOracle) {
  sim::Rng rng(GetParam());
  SoftwarePdda pdda;
  for (int i = 0; i < 150; ++i) {
    const std::size_t m = 2 + rng.below(7);
    const std::size_t n = 2 + rng.below(7);
    const StateMatrix s = rag::random_state(m, n, rng);
    EXPECT_EQ(pdda.detect(s), rag::oracle_has_cycle(s)) << s.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PddaPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

// The meter is the simulated cost of software detection (RTOS1 and the
// sharded units' residue), so its counts are pinned exactly on
// fixed-seed states: 5x5 (the paper's geometry), 64x64 and 80x130,
// whose rows take three bitset words. The large states hold about one
// request per row, so some deadlock and some reduce away.
struct PddaPin {
  std::size_t m, n;
  std::uint64_t seed;
  int states;
  OpMeter meter;  // last_meter() summed over every detect()
  std::uint64_t iterations;
  std::uint64_t deadlocks;
};

PddaPin drive_pdda(std::size_t m, std::size_t n, std::uint64_t seed,
                   int states) {
  sim::Rng rng(seed);
  SoftwarePdda pdda;
  PddaPin out{m, n, seed, states, {}, 0, 0};
  for (int i = 0; i < states; ++i) {
    const StateMatrix s =
        m <= 8 ? rag::random_state(m, n, rng)
               : rag::random_state(m, n, rng, 0.5, 1.5 / double(n));
    out.deadlocks += pdda.detect(s) ? 1 : 0;
    out.meter += pdda.last_meter();
    out.iterations += pdda.last_iterations();
  }
  return out;
}

TEST(SoftwarePdda, MeterIsPinnedOnRandomStates) {
  const PddaPin pins[] = {
      {5, 5, 0x9dda05, 400, {77437, 33510, 217947, 101977}, 630, 21},
      {64, 64, 0x9dda40, 60, {3591732, 689856, 10515188, 4036208}, 320, 18},
      {80, 130, 0x9dda50, 60, {8508397, 1618550, 24616347, 9503295}, 288, 6},
  };
  for (const PddaPin& pin : pins) {
    const PddaPin got = drive_pdda(pin.m, pin.n, pin.seed, pin.states);
    SCOPED_TRACE(testing::Message() << pin.m << "x" << pin.n);
    EXPECT_EQ(got.meter.loads, pin.meter.loads);
    EXPECT_EQ(got.meter.stores, pin.meter.stores);
    EXPECT_EQ(got.meter.alu, pin.meter.alu);
    EXPECT_EQ(got.meter.branches, pin.meter.branches);
    EXPECT_EQ(got.iterations, pin.iterations);
    EXPECT_EQ(got.deadlocks, pin.deadlocks);
  }
}

// TerminalReduction runs one loop body on one column word when n <= 64
// and on a run-time number of words otherwise. Run both on the same
// edges: the m x n state takes the one-word path, and the same edges
// in an m x (n + 64) state, reduced on a selection of its first n
// columns, take the word loop. Half the wide states also hold edges in
// the unselected columns, which the selection must ignore.
TEST(TerminalReduction, OneWordPathMatchesWordLoop) {
  sim::Rng rng(0x1f0d);
  TerminalReduction narrow, wide;
  for (const std::size_t n :
       {std::size_t{5}, std::size_t{40}, std::size_t{64}}) {
    const std::uint64_t first_n =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    for (int i = 0; i < 300; ++i) {
      const std::size_t m = 1 + rng.below(96);
      const StateMatrix s = rag::random_state(
          m, n, rng, 0.5, rng.chance(0.5) ? 0.15 : 1.5 / double(n));
      StateMatrix w(m, n + 64);
      for (rag::ResId q = 0; q < m; ++q)
        for (rag::ProcId p = 0; p < n; ++p) w.set(q, p, s.at(q, p));
      if (i % 2 == 1)
        for (rag::ResId q = 0; q < m; ++q)
          if (rng.chance(0.3)) w.set(q, n + rng.below(64), rag::Edge::kRequest);
      SCOPED_TRACE(testing::Message() << m << "x" << n << " state " << i);

      const std::uint64_t all_rows[2] = {~std::uint64_t{0}, ~std::uint64_t{0}};
      const std::uint64_t wide_cols[2] = {first_n, 0};
      const ReductionSummary whole = narrow.run(s);
      EXPECT_EQ(whole, wide.run(w, all_rows, wide_cols));
      EXPECT_EQ(whole.edges_remain, rag::oracle_has_cycle(s));

      // A random selection; row bits past m must be ignored too.
      const std::uint64_t rows[2] = {rng.next(), rng.next()};
      const std::uint64_t cols[1] = {rng.next()};
      const std::uint64_t sel_cols[2] = {cols[0] & first_n, 0};
      EXPECT_EQ(narrow.run(s, rows, cols), wide.run(w, rows, sel_cols));
    }
  }
}

TEST(SoftwarePdda, ExhaustiveTinyAgreement) {
  SoftwarePdda pdda;
  rag::for_each_small_state(3, 3, [&](const StateMatrix& s) {
    ASSERT_EQ(pdda.detect(s), rag::oracle_has_cycle(s)) << s.to_string();
  });
}

}  // namespace
}  // namespace delta::deadlock

// Wait-for-graph scan (deadlock/wfg.h).
//
// The scan's contract: verdict iff the RAG oracle sees a cycle, residue
// a subset of the reduction's deadlocked set (pure waiters blocked
// behind a cycle are trimmed), and every scan is metered so the kernel
// can charge the software cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "deadlock/wfg.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "sim/random.h"

namespace delta::deadlock {
namespace {

using rag::ProcId;
using rag::ResId;
using rag::StateMatrix;

TEST(Wfg, EmptyStateIsClean) {
  const WfgScan s = scan_wait_for_graph(StateMatrix(4, 4));
  EXPECT_FALSE(s.deadlock);
  EXPECT_TRUE(s.deadlocked.empty());
}

TEST(Wfg, GrantsAloneNeverDeadlock) {
  StateMatrix m(3, 3);
  for (ProcId p = 0; p < 3; ++p) m.add_grant(static_cast<ResId>(p), p);
  const WfgScan s = scan_wait_for_graph(m);
  EXPECT_FALSE(s.deadlock);
}

TEST(Wfg, ChainTrimsToNothing) {
  // p0 -> p1 -> p2 -> p3: a wait chain with a free head cannot cycle.
  StateMatrix m(4, 4);
  for (ProcId p = 0; p < 4; ++p) m.add_grant(static_cast<ResId>(p), p);
  for (ProcId p = 0; p + 1 < 4; ++p)
    m.add_request(p, static_cast<ResId>(p + 1));
  const WfgScan s = scan_wait_for_graph(m);
  EXPECT_FALSE(s.deadlock);
  EXPECT_TRUE(s.deadlocked.empty());
}

TEST(Wfg, TwoCycleIsDeadlock) {
  StateMatrix m(2, 2);
  m.add_grant(0, 0);
  m.add_grant(1, 1);
  m.add_request(0, 1);
  m.add_request(1, 0);
  const WfgScan s = scan_wait_for_graph(m);
  EXPECT_TRUE(s.deadlock);
  EXPECT_EQ(s.deadlocked, (std::vector<ProcId>{0, 1}));
  EXPECT_TRUE(rag::oracle_has_cycle(m));
}

TEST(Wfg, WaiterBehindCycleIsTrimmed) {
  // p2 waits on the cycle {p0, p1} but holds nothing anyone wants: it
  // is starved, not knotted. The trim residue excludes it — recovery
  // must abort a cycle member, not a bystander — and the terminal
  // reduction agrees (a request-only column is terminal and clears on
  // the first epsilon step).
  StateMatrix m(3, 3);
  m.add_grant(0, 0);
  m.add_grant(1, 1);
  m.add_request(0, 1);
  m.add_request(1, 0);
  m.add_request(2, 0);
  const WfgScan s = scan_wait_for_graph(m);
  EXPECT_TRUE(s.deadlock);
  EXPECT_EQ(s.deadlocked, (std::vector<ProcId>{0, 1}));
  EXPECT_EQ(rag::deadlocked_processes(m), (std::vector<ProcId>{0, 1}));
}

TEST(Wfg, ResidueIsSubsetOfReduction) {
  StateMatrix m(5, 5);
  for (ProcId p = 0; p < 5; ++p) m.add_grant(static_cast<ResId>(p), p);
  for (ProcId p = 0; p < 3; ++p)
    m.add_request(p, static_cast<ResId>((p + 1) % 3));  // 3-cycle
  m.add_request(3, 0);  // behind the cycle
  const WfgScan s = scan_wait_for_graph(m);
  ASSERT_TRUE(s.deadlock);
  const std::vector<ProcId> all = rag::deadlocked_processes(m);
  for (ProcId p : s.deadlocked)
    EXPECT_NE(std::find(all.begin(), all.end(), p), all.end())
        << "residue process " << p << " not in the reduction's set";
}

TEST(Wfg, MeterChargesEveryScan) {
  StateMatrix m(8, 8);
  for (ProcId p = 0; p < 8; ++p) m.add_grant(static_cast<ResId>(p), p);
  const WfgScan s = scan_wait_for_graph(m);
  EXPECT_GT(s.meter.loads, 0u);
  EXPECT_GT(s.meter.branches, 0u);
}

// Property: verdict agrees with the oracle on random states (held
// resources unique per process, arbitrary request edges).
TEST(Wfg, RandomStatesAgreeWithOracle) {
  sim::Rng rng(0x3f65);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 2 + rng.below(8);
    StateMatrix m(n, n);
    // Each resource is held by at most one process.
    for (ResId q = 0; q < n; ++q) {
      const std::uint64_t pick = rng.below(n + 1);
      if (pick < n) m.add_grant(q, static_cast<ProcId>(pick));
    }
    // Blocked processes wait on a single resource they don't hold.
    for (ProcId p = 0; p < n; ++p) {
      if (rng.below(2) == 0) continue;
      const ResId q = static_cast<ResId>(rng.below(n));
      if (m.at(q, p) == rag::Edge::kNone) m.add_request(p, q);
    }
    const WfgScan s = scan_wait_for_graph(m);
    EXPECT_EQ(s.deadlock, rag::oracle_has_cycle(m)) << "round " << round;
    EXPECT_EQ(s.deadlock, !s.deadlocked.empty()) << "round " << round;
  }
}

// The scan's meter is the simulated cost of a WFG detection period, so
// its counts are pinned exactly on fixed-seed states at 5x5, 64x64 and
// 80x130 (three bitset words per row).
struct WfgPin {
  std::size_t m, n;
  std::uint64_t seed;
  int states;
  OpMeter meter;  // WfgScan::meter summed over every scan
  std::uint64_t deadlocks;
  std::uint64_t residue;  // processes in the trim residues
};

WfgPin drive_wfg(std::size_t m, std::size_t n, std::uint64_t seed,
                 int states) {
  sim::Rng rng(seed);
  WfgPin out{m, n, seed, states, {}, 0, 0};
  for (int i = 0; i < states; ++i) {
    const StateMatrix s =
        m <= 8 ? rag::random_state(m, n, rng)
               : rag::random_state(m, n, rng, 0.5, 1.5 / double(n));
    const WfgScan scan = scan_wait_for_graph(s);
    out.meter += scan.meter;
    out.deadlocks += scan.deadlock ? 1 : 0;
    out.residue += scan.deadlocked.size();
  }
  return out;
}

TEST(Wfg, MeterIsPinnedOnRandomStates) {
  const WfgPin pins[] = {
      {5, 5, 0x3f6505, 400, {11292, 3387, 0, 6943}, 17, 37},
      {64, 64, 0x3f6540, 60, {44967, 16311, 0, 27223}, 18, 67},
      {80, 130, 0x3f6550, 60, {60840, 21012, 0, 36048}, 8, 19},
  };
  for (const WfgPin& pin : pins) {
    const WfgPin got = drive_wfg(pin.m, pin.n, pin.seed, pin.states);
    SCOPED_TRACE(testing::Message() << pin.m << "x" << pin.n);
    EXPECT_EQ(got.meter.loads, pin.meter.loads);
    EXPECT_EQ(got.meter.stores, pin.meter.stores);
    EXPECT_EQ(got.meter.alu, pin.meter.alu);
    EXPECT_EQ(got.meter.branches, pin.meter.branches);
    EXPECT_EQ(got.deadlocks, pin.deadlocks);
    EXPECT_EQ(got.residue, pin.residue);
  }
}

}  // namespace
}  // namespace delta::deadlock

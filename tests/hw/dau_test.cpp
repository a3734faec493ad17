#include "hw/dau.h"

#include <gtest/gtest.h>

#include <string>

#include "hw/verilog_gen.h"
#include "rag/oracle.h"
#include "sim/random.h"

namespace delta::hw {
namespace {

using deadlock::ReleaseOutcome;
using deadlock::ReleaseResult;
using deadlock::RequestOutcome;
using deadlock::RequestResult;

TEST(Dau, GrantsFreeResourceQuickly) {
  Dau dau(5, 5);
  EXPECT_EQ(dau.request(0, 0),
            (RequestResult{.outcome = RequestOutcome::kGranted,
                           .asked_resources = {}}));
  EXPECT_EQ(dau.owner(0), 0u);
  EXPECT_EQ(dau.last_cycles(), Dau::kRequestFsmSteps);
  EXPECT_EQ(dau.last_probes(), 0u);
}

TEST(Dau, PendingRequestProbesOnce) {
  Dau dau(5, 5);
  dau.request(0, 0);
  EXPECT_EQ(dau.request(1, 0),
            (RequestResult{.outcome = RequestOutcome::kPending,
                           .asked_resources = {}}));
  EXPECT_EQ(dau.last_probes(), 1u);
  EXPECT_GT(dau.last_cycles(), Dau::kRequestFsmSteps);
}

TEST(Dau, GrantDeadlockScenarioTable6) {
  // §5.4.1: p1..p4 -> 0..3; q1..q4 -> 0..3.
  Dau dau(5, 5);
  dau.request(0, 0);
  dau.request(0, 1);
  dau.request(2, 1);
  dau.request(2, 3);
  dau.request(1, 1);
  dau.request(1, 3);
  dau.release(0, 0);
  // t5, the G-dl moment: q2 goes to the lower-priority p3.
  EXPECT_EQ(dau.release(0, 1),
            (ReleaseResult{.outcome = ReleaseOutcome::kGrantedLower,
                           .g_dl = true,
                           .grantee = 2,
                           .asked_resources = {}}));
  EXPECT_FALSE(rag::oracle_has_cycle(dau.state()));
}

TEST(Dau, RequestDeadlockScenarioTable8) {
  Dau dau(5, 5);
  dau.request(0, 0);
  dau.request(1, 1);
  dau.request(2, 2);
  dau.request(1, 2);
  dau.request(2, 0);
  // t6, the R-dl moment: p2 is asked to give up q2.
  EXPECT_EQ(dau.request(0, 1),
            (RequestResult{.outcome = RequestOutcome::kOwnerAsked,
                           .r_dl = true,
                           .asked = 1,
                           .asked_resources = {1}}));
  // p2 complies; q2 goes to p1.
  EXPECT_EQ(dau.release(1, 1),
            (ReleaseResult{.outcome = ReleaseOutcome::kGrantedHighest,
                           .grantee = 0,
                           .asked_resources = {}}));
}

TEST(Dau, ReleaseWithNoWaitersIsCheap) {
  Dau dau(5, 5);
  dau.request(0, 0);
  dau.release(0, 0);
  EXPECT_EQ(dau.last_probes(), 0u);
  EXPECT_EQ(dau.last_cycles(), Dau::kRequestFsmSteps);
}

TEST(Dau, WorstCaseCyclesMatchTable2) {
  // Table 2: 6 x 5 + 8 = 38 worst-case steps for the 5x5 DAU.
  Dau dau(5, 5);
  EXPECT_EQ(dau.worst_case_cycles(), 38u);
}

TEST(Dau, ObservedCyclesNeverExceedWorstCase) {
  sim::Rng rng(81);
  Dau dau(5, 5);
  for (int step = 0; step < 500; ++step) {
    const rag::ProcId p = rng.below(5);
    if (rng.chance(0.45)) {
      const auto held = dau.state().held_by(p);
      if (held.empty()) continue;
      dau.release(p, held[rng.below(held.size())]);
    } else {
      const rag::ResId q = rng.below(5);
      if (dau.state().at(q, p) != rag::Edge::kNone) continue;
      const RequestResult r = dau.request(p, q);
      for (rag::ResId give : r.asked_resources) dau.release(r.asked, give);
    }
    EXPECT_LE(dau.last_cycles(), dau.worst_case_cycles());
  }
}

TEST(Dau, PriorityOverrideChangesArbitration) {
  Dau dau(5, 5);
  // Invert priorities: p4 highest.
  for (rag::ProcId p = 0; p < 5; ++p)
    dau.set_priority(p, static_cast<int>(4 - p));
  dau.request(0, 0);
  dau.request(1, 0);
  dau.request(4, 0);
  // p4 now wins the hand-off.
  EXPECT_EQ(dau.release(0, 0),
            (ReleaseResult{.outcome = ReleaseOutcome::kGrantedHighest,
                           .grantee = 4,
                           .asked_resources = {}}));
}

TEST(Dau, StatusReportsResource) {
  // The model returns the engine's decision; the status-register layout,
  // which-resource field included, lives in the generated unit.
  const std::string v = generate_dau_verilog(5, 5, 1);
  for (const char* field : {"which_res_q", "which_proc_q", "giveup_q",
                            "livelock_q", "gdl_q", "rdl_q"})
    EXPECT_NE(v.find(field), std::string::npos) << field;
}

}  // namespace
}  // namespace delta::hw

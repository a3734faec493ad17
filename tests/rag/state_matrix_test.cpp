#include "rag/state_matrix.h"

#include <gtest/gtest.h>

#include "sim/random.h"

namespace delta::rag {
namespace {

TEST(StateMatrix, StartsEmpty) {
  StateMatrix m(3, 4);
  EXPECT_EQ(m.resources(), 3u);
  EXPECT_EQ(m.processes(), 4u);
  EXPECT_TRUE(m.empty());
  for (ResId s = 0; s < 3; ++s)
    for (ProcId t = 0; t < 4; ++t) EXPECT_EQ(m.at(s, t), Edge::kNone);
}

TEST(StateMatrix, ZeroDimensionThrows) {
  EXPECT_THROW(StateMatrix(0, 3), std::invalid_argument);
  EXPECT_THROW(StateMatrix(3, 0), std::invalid_argument);
}

TEST(StateMatrix, SetGetRoundTrip) {
  StateMatrix m(2, 2);
  m.set(0, 1, Edge::kRequest);
  m.set(1, 0, Edge::kGrant);
  EXPECT_EQ(m.at(0, 1), Edge::kRequest);
  EXPECT_EQ(m.at(1, 0), Edge::kGrant);
  EXPECT_EQ(m.at(0, 0), Edge::kNone);
  m.set(0, 1, Edge::kGrant);  // overwrite clears the request bit
  EXPECT_EQ(m.at(0, 1), Edge::kGrant);
  m.clear(0, 1);
  EXPECT_EQ(m.at(0, 1), Edge::kNone);
}

TEST(StateMatrix, EdgeCount) {
  StateMatrix m(3, 3);
  EXPECT_EQ(m.edge_count(), 0u);
  m.add_request(0, 0);
  m.add_grant(1, 1);
  m.add_request(2, 2);
  EXPECT_EQ(m.edge_count(), 3u);
  m.clear(0, 0);
  EXPECT_EQ(m.edge_count(), 2u);
}

TEST(StateMatrix, RowColAggregates) {
  StateMatrix m(2, 3);
  m.add_request(/*proc=*/1, /*res=*/0);
  m.add_grant(/*res=*/0, /*proc=*/2);
  EXPECT_TRUE(m.row_has_request(0));
  EXPECT_TRUE(m.row_has_grant(0));
  EXPECT_FALSE(m.row_has_request(1));
  EXPECT_TRUE(m.col_has_request(1));
  EXPECT_FALSE(m.col_has_grant(1));
  EXPECT_TRUE(m.col_has_grant(2));
}

TEST(StateMatrix, ClearRowAndCol) {
  StateMatrix m(3, 3);
  for (ResId s = 0; s < 3; ++s)
    for (ProcId t = 0; t < 3; ++t) m.set(s, t, Edge::kRequest);
  m.clear_row(1);
  for (ProcId t = 0; t < 3; ++t) EXPECT_EQ(m.at(1, t), Edge::kNone);
  m.clear_col(2);
  for (ResId s = 0; s < 3; ++s) EXPECT_EQ(m.at(s, 2), Edge::kNone);
  EXPECT_EQ(m.edge_count(), 4u);
}

TEST(StateMatrix, OwnerAndHeldBy) {
  StateMatrix m(3, 2);
  EXPECT_EQ(m.owner(0), kNoProc);
  m.add_grant(0, 1);
  m.add_grant(2, 1);
  EXPECT_EQ(m.owner(0), 1u);
  EXPECT_EQ(m.owner(1), kNoProc);
  EXPECT_EQ(m.held_by(1), (std::vector<ResId>{0, 2}));
  EXPECT_TRUE(m.held_by(0).empty());
}

TEST(StateMatrix, WaitersAndRequestedBy) {
  StateMatrix m(2, 3);
  m.add_request(0, 1);
  m.add_request(2, 1);
  EXPECT_EQ(m.waiters(1), (std::vector<ProcId>{0, 2}));
  EXPECT_EQ(m.requested_by(0), (std::vector<ResId>{1}));
}

TEST(StateMatrix, WideMatrixCrossesWordBoundary) {
  // 100 processes -> two 64-bit words per row.
  StateMatrix m(2, 100);
  m.add_request(70, 0);
  m.add_grant(0, 99);
  EXPECT_EQ(m.at(0, 70), Edge::kRequest);
  EXPECT_EQ(m.at(0, 99), Edge::kGrant);
  EXPECT_EQ(m.owner(0), 99u);
  EXPECT_TRUE(m.col_has_request(70));
  EXPECT_FALSE(m.col_has_request(71));
  m.clear_col(70);
  EXPECT_EQ(m.at(0, 70), Edge::kNone);
  EXPECT_EQ(m.at(0, 99), Edge::kGrant);
}

TEST(StateMatrix, Equality) {
  StateMatrix a(2, 2), b(2, 2);
  EXPECT_EQ(a, b);
  a.add_request(0, 0);
  EXPECT_NE(a, b);
  b.add_request(0, 0);
  EXPECT_EQ(a, b);
}

// The deadlock probes walk edge_rows() instead of all m rows, so it
// must match the planes after every write: bit s is set iff row s holds
// a request or a grant, and no bit at or past m is set.
void expect_edge_rows_exact(const StateMatrix& m, int step) {
  for (std::size_t j = 0; j < (m.resources() + 63) / 64; ++j)
    for (std::size_t b = 0; b < 64; ++b) {
      const std::size_t s = j * 64 + b;
      const bool bit = ((m.edge_rows()[j] >> b) & 1) != 0;
      const bool want = s < m.resources() &&
                        (m.row_has_request(s) || m.row_has_grant(s));
      ASSERT_EQ(bit, want) << "row " << s << " after write " << step;
    }
}

TEST(StateMatrix, EdgeRowsFollowEveryWrite) {
  constexpr Edge kEdges[] = {Edge::kNone, Edge::kRequest, Edge::kGrant};
  struct Shape {
    std::size_t m, n;
  };
  // 80x130: two row words, three column words.
  for (const Shape shape : {Shape{5, 5}, Shape{64, 64}, Shape{80, 130}}) {
    SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n);
    sim::Rng rng(0xed6e + shape.m);
    StateMatrix m(shape.m, shape.n);
    StateMatrix saved(shape.m, shape.n);
    expect_edge_rows_exact(m, -1);
    for (int step = 0; step < 6000; ++step) {
      const ResId s = rng.below(shape.m);
      const ProcId t = rng.below(shape.n);
      switch (rng.below(9)) {
        case 0: m.set(s, t, kEdges[rng.below(3)]); break;
        case 1: m.add_request(t, s); break;
        case 2: m.add_grant(s, t); break;
        case 3: m.clear(s, t); break;
        case 4:
        case 5: {
          // Clear one of the row's edges, so rows also empty one edge at
          // a time on the large shapes.
          ProcId u = 0;
          while (u + 1 < shape.n && m.at(s, u) == Edge::kNone) ++u;
          m.clear(s, u);
          break;
        }
        case 6: m.clear_row(s); break;
        case 7: m.clear_col(t); break;
        default:
          if (rng.chance(0.5)) {
            saved = m;
            expect_edge_rows_exact(saved, step);
          } else {
            m = saved;
          }
      }
      expect_edge_rows_exact(m, step);
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(m.empty(), m.edge_count() == 0);
  }
}

TEST(StateMatrix, ToStringShowsEdges) {
  StateMatrix m(2, 2);
  m.add_request(0, 0);
  m.add_grant(1, 1);
  const std::string s = m.to_string();
  EXPECT_NE(s.find('r'), std::string::npos);
  EXPECT_NE(s.find('g'), std::string::npos);
}

}  // namespace
}  // namespace delta::rag

#include "sim/trace.h"

#include <gtest/gtest.h>

#include <sstream>

namespace delta::sim {
namespace {

TEST(Trace, RecordsEvents) {
  Trace t;
  t.record(10, "PE1", "task started");
  t.record(20, "DAU", "request q2");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.events()[1].text, "request q2");
}

TEST(Trace, MatchingFilter) {
  Trace t;
  t.record(1, "DAU", "p1 requests q1");
  t.record(2, "DAU", "p1 releases q1");
  t.record(3, "DAU", "p2 requests q2");
  EXPECT_EQ(t.matching("requests").size(), 2u);
  EXPECT_EQ(t.matching("releases").size(), 1u);
  EXPECT_EQ(t.matching("nothing").size(), 0u);
}

TEST(Trace, PrintContainsRows) {
  Trace t;
  t.record(123, "PE3", "deadlock detected");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("123"), std::string::npos);
  EXPECT_NE(os.str().find("deadlock detected"), std::string::npos);
}

}  // namespace
}  // namespace delta::sim

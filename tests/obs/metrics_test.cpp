#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>

namespace delta::obs {
namespace {

/// "m.extra0" .. "m.extra99", spelled out at compile time. A registry
/// keeps views of its names, so they must outlive it: these have static
/// storage, as a string literal does.
constexpr std::size_t kExtras = 100;
constexpr auto kExtraChars = [] {
  std::array<std::array<char, 12>, kExtras> names{};
  for (std::size_t i = 0; i < kExtras; ++i) {
    std::size_t len = 0;
    for (const char c : std::string_view("m.extra")) names[i][len++] = c;
    if (i >= 10) names[i][len++] = static_cast<char>('0' + i / 10);
    names[i][len] = static_cast<char>('0' + i % 10);
  }
  return names;
}();
constexpr auto kExtraNames = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array<MetricName, kExtras>{MetricName(kExtraChars[I].data())...};
}(std::make_index_sequence<kExtras>{});

TEST(MetricsRegistry, CounterCreatesOnFirstUseAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("bus.transactions");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsRegistry, SameNameReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  sim::SampleSet& h1 = reg.histogram("lat");
  sim::SampleSet& h2 = reg.histogram("lat");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, ReferencesStayValidAcrossInsertions) {
  // Hot paths cache Counter*/SampleSet* at attach time; later
  // registrations must never invalidate them (entries never move).
  MetricsRegistry reg;
  Counter& first = reg.counter("m.a");
  for (const MetricName& name : kExtraNames) reg.counter(name).add();
  first.add(7);
  EXPECT_EQ(reg.counter("m.a").value(), 7u);
  // Past the first block, names still come out in order.
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), kExtras + 1);
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end()));
}

TEST(MetricsRegistry, ReadingAnUnregisteredNameAddsNothing) {
  MetricsRegistry reg;
  reg.counter("lock.acquires").add(3);
  reg.histogram("lock.latency").add(1.0);
  const MetricsSnapshot before = reg.snapshot();
  EXPECT_EQ(reg.counter_value("lock.acquires"), 3u);
  EXPECT_EQ(reg.counter_value(std::string("lock.") + "acquires"), 3u);
  EXPECT_EQ(reg.counter_value("lock.acquire"), 0u);  // misspelt
  EXPECT_EQ(reg.counter_value("lock.latency"), 0u);  // not a counter
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.counters, before.counters);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].first, "lock.latency");
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid").add(3);
  reg.histogram("z.lat").add(1.0);
  reg.histogram("a.lat").add(2.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].first, "a.lat");
  EXPECT_EQ(snap.histograms[1].first, "z.lat");
}

TEST(MetricsRegistry, SnapshotSummarizesHistograms) {
  MetricsRegistry reg;
  sim::SampleSet& h = reg.histogram("lock.latency");
  for (int i = 1; i <= 100; ++i) h.add(i);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSummary& s = snap.histograms[0].second;
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_GT(s.stddev, 0.0);
}

TEST(MetricsRegistry, SnapshotOutlivesItsRegistry) {
  MetricsSnapshot snap;
  {
    MetricsRegistry reg;
    reg.counter("bus.words").add(5);
    reg.histogram("mem.alloc_latency").add(2.0);
    snap = reg.snapshot();
  }
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "bus.words");
  EXPECT_EQ(snap.counters[0].second, 5u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].first, "mem.alloc_latency");
}

TEST(MetricsRegistry, SnapshotIsDetachedCopy) {
  MetricsRegistry reg;
  reg.counter("c").add(1);
  const MetricsSnapshot snap = reg.snapshot();
  reg.counter("c").add(10);
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(reg.snapshot().counters[0].second, 11u);
}

}  // namespace
}  // namespace delta::obs

// FlatSet and FlatMap against std::set and std::map.
//
// Random insert, erase, copy and clear sequences over a small key range,
// so the containers' sizes cross their inline capacity in both
// directions many times. After every step both must hold the same
// entries in the same order. A container that spilled to the heap and
// then shrank back must still read the storage that holds its entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtos/flat_containers.h"
#include "sim/random.h"

namespace delta::rtos {
namespace {

constexpr int kSteps = 20'000;
constexpr std::uint64_t kKeys = 10;

template <typename Flat, typename Std>
void expect_same_order(const Flat& flat, const Std& ref) {
  using Entry = std::remove_cvref_t<decltype(*flat.begin())>;
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  ASSERT_EQ(std::vector<Entry>(flat.begin(), flat.end()),
            std::vector<Entry>(ref.begin(), ref.end()));
}

TEST(FlatContainers, SetMatchesStdSetAcrossInlineCapacity) {
  sim::Rng rng(0xf1a7);
  FlatSet<std::size_t> flat;
  std::set<std::size_t> ref;
  std::size_t largest = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t k = rng.below(kKeys);
    const std::uint64_t roll = rng.below(100);
    // Inserts outweigh erases while the set is small and the other way
    // round once it is large, so its size swings across the inline
    // capacity instead of settling on one side of it.
    const std::uint64_t inserts = ref.size() < kKeys / 2 ? 60 : 35;
    if (roll < inserts) {
      EXPECT_EQ(flat.insert(k), ref.insert(k).second);
    } else if (roll < 92) {
      EXPECT_EQ(flat.erase(k), ref.erase(k));
    } else if (roll < 95) {
      FlatSet<std::size_t> copy(flat);
      flat = FlatSet<std::size_t>();
      expect_same_order(copy, ref);
      flat = copy;
      expect_same_order(copy, ref);
    } else if (roll < 98) {
      FlatSet<std::size_t> moved(std::move(flat));
      flat = std::move(moved);
    } else {
      flat.clear();
      ref.clear();
    }
    largest = std::max(largest, ref.size());
    expect_same_order(flat, ref);
    EXPECT_EQ(flat.contains(k), ref.count(k) == 1);
    EXPECT_EQ(flat.count(k), ref.count(k));
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(largest, 8u) << "the sequence never left the inline storage";
}

TEST(FlatContainers, MapMatchesStdMapAcrossInlineCapacity) {
  // Keys are views of strings that outlive the map, as a task's
  // allocation slots view its program's op strings.
  std::vector<std::string> names;
  for (std::uint64_t i = 0; i < kKeys; ++i)
    names.push_back("slot" + std::to_string(i * 7 % kKeys));
  sim::Rng rng(0x3a9);
  FlatMap<std::string_view, std::uint64_t> flat;
  std::map<std::string_view, std::uint64_t> ref;
  std::size_t largest = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::string_view k = names[rng.below(kKeys)];
    const std::uint64_t roll = rng.below(100);
    const std::uint64_t inserts = ref.size() < kKeys / 2 ? 60 : 35;
    if (roll < inserts) {
      const std::uint64_t v = rng.below(1000);
      flat[k] = v;
      ref[k] = v;
    } else if (roll < 80) {
      EXPECT_EQ(flat.erase(k), ref.erase(k));
    } else if (roll < 92) {
      const auto it = flat.find(k);
      const auto rit = ref.find(k);
      ASSERT_EQ(it == flat.end(), rit == ref.end());
      if (it != flat.end()) {
        EXPECT_EQ(it->second, rit->second);
        EXPECT_EQ(flat.at(k), rit->second);
        flat.erase(it);
        ref.erase(rit);
      }
    } else if (roll < 95) {
      FlatMap<std::string_view, std::uint64_t> copy(flat);
      flat = FlatMap<std::string_view, std::uint64_t>();
      expect_same_order(copy, ref);
      flat = copy;
    } else if (roll < 98) {
      FlatMap<std::string_view, std::uint64_t> moved(std::move(flat));
      flat = std::move(moved);
    } else {
      flat.clear();
      ref.clear();
    }
    largest = std::max(largest, ref.size());
    expect_same_order(flat, ref);
    EXPECT_EQ(flat.count(k), ref.count(k));
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(largest, 8u) << "the sequence never left the inline storage";
}

}  // namespace
}  // namespace delta::rtos

// Property test: the heap-ordered EventQueue must be externally
// indistinguishable from the obvious reference implementation — a
// vector of (time, sequence, payload) kept sorted by (time, sequence).
// Random interleavings of schedule / cancel / pop are replayed against
// both; any divergence in pop order, next_time, size, or cancel results
// is a bug. Schedule times mix same-cycle ties, near and far-future
// delays, and a cancel-heavy phase keeps stale heap entries, their
// pruning and heap compaction in play.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/random.h"

namespace delta::sim {
namespace {

/// Reference model: brute-force sorted vector with FIFO tie-break.
class ModelQueue {
 public:
  std::size_t schedule(Cycles at) {
    const std::size_t id = next_id_++;
    events_.push_back({at, id});
    return id;
  }

  bool cancel(std::size_t id) {
    const auto it =
        std::find_if(events_.begin(), events_.end(),
                     [&](const Entry& e) { return e.id == id; });
    if (it == events_.end()) return false;
    events_.erase(it);
    return true;
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  [[nodiscard]] Cycles next_time() const {
    if (events_.empty()) return kNeverCycles;
    return min_it()->at;
  }

  /// Pop the earliest event (FIFO among equal times); returns its id.
  std::size_t pop(Cycles* at_out) {
    const auto it = min_it();
    const std::size_t id = it->id;
    *at_out = it->at;
    events_.erase(it);
    return id;
  }

 private:
  struct Entry {
    Cycles at;
    std::size_t id;  ///< monotonically increasing = schedule order
  };

  [[nodiscard]] std::vector<Entry>::const_iterator min_it() const {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Entry& a, const Entry& b) {
                              if (a.at != b.at) return a.at < b.at;
                              return a.id < b.id;
                            });
  }
  [[nodiscard]] std::vector<Entry>::iterator min_it() {
    return std::min_element(events_.begin(), events_.end(),
                            [](const Entry& a, const Entry& b) {
                              if (a.at != b.at) return a.at < b.at;
                              return a.id < b.id;
                            });
  }

  std::vector<Entry> events_;
  std::size_t next_id_ = 0;
};

struct Mix {
  std::uint64_t schedule_pct;  ///< dice below this schedules
  std::uint64_t cancel_pct;    ///< then below this cancels; else pops
  std::uint64_t far_kinds;     ///< of 4 delay kinds (0 = same-cycle),
                               ///< how many of the last are far-future
};

/// Replays one random schedule/cancel/pop interleaving against both
/// queues, asserting they agree after every step and through the drain.
void replay_against_model(std::uint64_t seed, const Mix& mix) {
  EventQueue q;
  ModelQueue model;
  Rng rng(seed);
  Cycles now = 0;  // time of the last pop; schedules are >= now
  std::vector<std::pair<EventId, std::size_t>> live;  // (real, model) ids
  std::size_t fired = 0;  // model id of the last real event that ran

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < mix.schedule_pct || q.empty()) {
      // Schedule: same-cycle ties, near delays, or far-future ones.
      const std::uint64_t kind = rng.below(4);
      Cycles delay = 0;
      if (kind >= 4 - mix.far_kinds) delay = 3000 + rng.below(100'000);
      else if (kind == 0) delay = rng.below(8);
      else if (kind == 1) delay = rng.below(2000);
      else delay = 2040 + rng.below(16);
      const Cycles at = now + delay;
      const std::size_t mid = model.schedule(at);
      live.emplace_back(q.schedule(at, [&fired, mid] { fired = mid; }), mid);
    } else if (dice < mix.cancel_pct && !live.empty()) {
      // Cancel a random live event — both must agree it existed.
      const std::size_t pick = rng.below(live.size());
      const auto [real, mid] = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(q.cancel(real));
      ASSERT_TRUE(model.cancel(mid));
      ASSERT_FALSE(q.cancel(real)) << "double cancel must fail";
    } else {
      // Pop — times and FIFO order must match the model exactly.
      ASSERT_EQ(q.next_time(), model.next_time());
      Cycles model_at = 0;
      const std::size_t mid = model.pop(&model_at);
      Fired f = q.pop();
      ASSERT_EQ(f.at, model_at) << "seed " << seed << " step " << step;
      f.fn();
      ASSERT_EQ(fired, mid) << "equal-time events fired out of order";
      ASSERT_GE(f.at, now) << "time ran backwards";
      now = f.at;
      const auto it = std::find_if(
          live.begin(), live.end(),
          [&](const auto& p) { return p.second == mid; });
      ASSERT_NE(it, live.end());
      live.erase(it);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
  }
  // Drain: the remaining events must come out in exact model order.
  while (!model.empty()) {
    Cycles model_at = 0;
    const std::size_t mid = model.pop(&model_at);
    Fired f = q.pop();
    ASSERT_EQ(f.at, model_at);
    f.fn();
    ASSERT_EQ(fired, mid);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperty, MatchesSortedVectorModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    replay_against_model(seed, Mix{55, 75, 1});
}

TEST(EventQueueProperty, MatchesModelUnderFarFutureCancelStorm) {
  // Mostly far-future events and more cancels than pops: stale entries
  // pile up below the top, so compaction runs repeatedly mid-replay.
  for (std::uint64_t seed = 11; seed <= 14; ++seed)
    replay_against_model(seed, Mix{50, 90, 3});
}

TEST(EventQueueProperty, FifoAtEqualTimeAcrossFarSchedules) {
  // Events for one far-future cycle, half scheduled long before it and
  // half just before it, must fire in global schedule order.
  EventQueue q;
  std::vector<int> fired;
  const Cycles target = 1'000'017;
  for (int i = 0; i < 4; ++i)
    q.schedule(target, [&fired, i] { fired.push_back(i); });
  // Walk time forward so the late half is scheduled from near `target`.
  q.schedule(target - 5, [] {});
  q.pop().fn();
  for (int i = 4; i < 8; ++i)
    q.schedule(target, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace delta::sim

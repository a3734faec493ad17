// Deterministic pending-event set for the discrete-event kernel.
//
// Pop order is total and reproducible: earliest time first, and events
// scheduled for the same cycle fire in schedule order (a monotonically
// increasing sequence number breaks ties), which keeps multi-PE
// simulations identical run to run.
//
// Layout:
//
//   - Event payloads live in a slab of fixed-size nodes (a freelist
//     recycles slots), and callbacks are sim::SmallFn, so schedule()
//     never heap-allocates on the hot path: the closure is emplaced
//     directly into the node — the caller's lambda captures materialise
//     straight into queue-owned storage, no temporary, no relocation.
//   - Order lives in a 4-ary min-heap of small {at, seq, slot, gen}
//     entries keyed on (at, seq). Simulations keep few events pending
//     (at most 5 in the paper's RTOS1–7 sweeps, 64 in 64x64 fuzzing),
//     so the heap is a few cache lines, and a fresh queue owns no memory
//     at all — construction is free, which matters when a sweep builds
//     one queue per ~150-event run.
//   - cancel() is O(1) and eager: the closure is destroyed on the spot —
//     cancelled captures never linger until pop — and the slot returned
//     to the freelist. Its generation bump turns the heap entry stale;
//     stale entries are dropped as soon as they reach the top, and the
//     heap is rebuilt once they outnumber live ones, so schedule/cancel
//     storms stay bounded. Ids carry the generation too, so stale
//     handles to recycled slots are rejected.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/engine_stats.h"
#include "sim/sim_time.h"
#include "sim/small_fn.h"

namespace delta::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Encodes (slab slot, generation); a handle dies when its event fires
/// or is cancelled.
using EventId = std::uint64_t;

/// Callback invoked when an event fires.
using EventFn = SmallFn;

/// An event popped from the queue: its firing time and its callback.
struct Fired {
  Cycles at = 0;
  EventFn fn;
};

/// Time-ordered, insertion-stable event queue.
///
/// Time must not run backwards: schedule() requires `at` to be no
/// earlier than the time of the most recently popped event (the
/// simulator's "now"). The simulator enforces this at its API edge.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(EventQueue&&) = delete;
  EventQueue& operator=(EventQueue&&) = delete;

  /// Schedule `fn` to fire at absolute time `at`. Returns a
  /// cancellation id. Never heap-allocates unless the closure exceeds
  /// SmallFn::kInlineBytes or the slab or heap must grow. The closure is
  /// constructed directly inside the slab node (no SmallFn temporary,
  /// no relocation), so a lambda at the call site materialises its
  /// captures straight into queue-owned storage.
  template <typename F>
  EventId schedule(Cycles at, F&& fn) {
    assert(at >= base_ && "scheduling into the past");
    if (at < base_) at = base_;  // release-mode safety: pops stay monotone
    const std::uint32_t slot = alloc_node();
    Node& n = slab_[slot];
    n.fn.emplace(std::forward<F>(fn));
    assert(n.fn && "scheduling an empty callback");
    push_entry(Entry{at, next_seq_++, slot, n.gen});
    ++live_;
    if (stats_ != nullptr) [[unlikely]] note_schedule();
    return (static_cast<EventId>(slot) << 32) | n.gen;
  }

  /// Cancel a previously scheduled event. Returns false if the event
  /// already fired, was already cancelled, or the id is unknown. The
  /// callback (and everything it captured) is destroyed immediately.
  bool cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kNeverCycles when empty.
  [[nodiscard]] Cycles next_time() const {
    return heap_.empty() ? kNeverCycles : heap_.front().at;
  }

  /// Pop and return the earliest live event. Precondition: !empty().
  Fired pop();

  /// Pop the earliest live event only if it fires at or before `limit`.
  /// Returns false (leaving the queue untouched) when the queue is
  /// empty or the next event is later. Inline so the simulator's step
  /// loop folds the heap pop and the closure relocation into one frame.
  bool pop_if_at_most(Cycles limit, Fired& out) {
    if (heap_.empty() || heap_.front().at > limit) return false;
    pop_top(out);
    return true;
  }

  /// Bytes of heap memory retained by the queue (slab and order heap).
  /// Exposed so regression tests can bound the memory of schedule/cancel
  /// storms and of a freshly constructed queue.
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Start collecting EngineStats (idempotent). Off by default: the
  /// hot paths then pay one predictable null test per site.
  void enable_stats();

  /// True once enable_stats() has been called.
  [[nodiscard]] bool stats_enabled() const { return stats_ != nullptr; }

  /// Copy of the collected stats with the memory peaks refreshed.
  /// Zeroed stats when collection was never enabled.
  [[nodiscard]] EngineStats stats_snapshot() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kArity = 4;

  /// Slab node: one scheduled event's payload.
  struct Node {
    std::uint32_t gen = 0;      ///< bumped on free; validates ids/entries
    std::uint32_t next = kNil;  ///< freelist link
    EventFn fn;
  };

  /// Heap entry; stale once slab_[slot].gen moves past `gen`.
  struct Entry {
    Cycles at;
    std::uint64_t seq;  ///< global schedule order (FIFO key)
    std::uint32_t slot;
    std::uint32_t gen;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  [[nodiscard]] bool stale(const Entry& e) const {
    return slab_[e.slot].gen != e.gen;
  }

  [[nodiscard]] std::uint32_t alloc_node() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = slab_[slot].next;
      return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void free_node(std::uint32_t slot) {
    Node& n = slab_[slot];
    n.fn.reset();  // destroy the closure (and its captures) eagerly
    ++n.gen;       // invalidate every outstanding id and heap entry
    n.next = free_head_;
    free_head_ = slot;
  }

  /// Index of the earliest of the children starting at `first`.
  [[nodiscard]] std::size_t min_child(std::size_t first) const {
    const std::size_t n = heap_.size();
    if (first + kArity <= n) {
      const Entry* c = &heap_[first];
      const std::size_t lo = before(c[1], c[0]);
      const std::size_t hi = 2 + std::size_t{before(c[3], c[2])};
      return first + (before(c[hi], c[lo]) ? hi : lo);
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    return best;
  }

  /// Sift `e` down from the hole at `i` into its place.
  void sift_down(std::size_t i, Entry e) {
    for (std::size_t first; (first = i * kArity + 1) < heap_.size();) {
      const std::size_t best = min_child(first);
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  void push_entry(const Entry& e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Remove the top entry.
  void pop_entry() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Restore the invariant that the top entry (if any) is live, so the
  /// const observers and the pop fast path never look past it.
  void drop_stale_top() {
    while (!heap_.empty() && stale(heap_.front())) {
      pop_entry();
      if (stats_ != nullptr) ++stats_->heap_prunes;
    }
  }

  /// Rebuild the heap without stale entries once they outnumber live
  /// ones, so cancel storms cannot grow it without bound.
  void compact_if_mostly_stale();

  /// Move the (live) top event into `out` and free its slot.
  void pop_top(Fired& out) {
    const Entry top = heap_.front();
    pop_entry();
    base_ = top.at;
    --live_;
    out.at = top.at;
    out.fn = std::move(slab_[top.slot].fn);
    free_node(top.slot);
    drop_stale_top();
    if (stats_ != nullptr) [[unlikely]] note_pop(out);
  }

  // EngineStats recorders — out of line, called only behind a
  // `stats_ != nullptr` test so the default path stays branch-per-site.
  void note_schedule();
  void note_pop(const Fired& out);
  void note_freelist();

  std::vector<Node> slab_;
  std::uint32_t free_head_ = kNil;
  /// 4-ary min-heap on (at, seq); holds every live event plus stale
  /// entries of cancelled ones. Its top is always live.
  std::vector<Entry> heap_;
  Cycles base_ = 0;  ///< time of the most recent pop ("now")
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  /// Engine introspection sink; null (collection off) by default.
  std::unique_ptr<EngineStats> stats_;
};

}  // namespace delta::sim

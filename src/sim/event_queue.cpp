#include "sim/event_queue.h"

#include <algorithm>

namespace delta::sim {

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (slot >= slab_.size() || slab_[slot].gen != gen) {
    if (stats_ != nullptr) ++stats_->cancels_dead;
    return false;
  }
  // The payload dies right now; the heap entry goes stale (generation
  // mismatch) and is dropped when it reaches the top or at compaction.
  free_node(slot);
  --live_;
  if (stats_ != nullptr) {
    ++stats_->cancels;
    note_freelist();
  }
  compact_if_mostly_stale();
  drop_stale_top();
  return true;
}

void EventQueue::compact_if_mostly_stale() {
  // Rebuilding when stale entries outnumber live ones is amortized O(1)
  // per cancel, and pop order is untouched: it is fully determined by
  // the (at, seq) key, never by layout.
  const std::size_t stale_entries = heap_.size() - live_;
  if (stale_entries < 64 || stale_entries <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  if (heap_.size() > 1)
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
      sift_down(i, heap_[i]);
  if (stats_ != nullptr) {
    ++stats_->heap_compactions;
    stats_->heap_prunes += stale_entries;
  }
}

Fired EventQueue::pop() {
  assert(!empty() && "pop() on empty event queue");
  Fired f;
  pop_top(f);
  return f;
}

std::size_t EventQueue::footprint_bytes() const {
  return slab_.capacity() * sizeof(Node) + heap_.capacity() * sizeof(Entry);
}

void EventQueue::enable_stats() {
  if (stats_ == nullptr) stats_ = std::make_unique<EngineStats>();
}

EngineStats EventQueue::stats_snapshot() const {
  if (stats_ == nullptr) return {};
  EngineStats s = *stats_;
  // Capacities never shrink, so "now" is also the high-water mark.
  s.slab_peak = std::max(s.slab_peak, static_cast<std::uint64_t>(slab_.size()));
  s.footprint_peak =
      std::max(s.footprint_peak, static_cast<std::uint64_t>(footprint_bytes()));
  return s;
}

void EventQueue::note_schedule() {
  EngineStats& s = *stats_;
  s.live_size.add(live_);
  if (slab_.size() > s.slab_peak)
    s.slab_peak = static_cast<std::uint64_t>(slab_.size());
  const auto fp = static_cast<std::uint64_t>(footprint_bytes());
  if (fp > s.footprint_peak) s.footprint_peak = fp;
}

void EventQueue::note_pop(const Fired& out) {
  EngineStats& s = *stats_;
  ++s.pops;
  ++(out.fn.is_boxed() ? s.dispatch_boxed : s.dispatch_inline);
  note_freelist();
}

void EventQueue::note_freelist() {
  const auto free_nodes = static_cast<std::uint64_t>(slab_.size() - live_);
  if (free_nodes > stats_->freelist_peak) stats_->freelist_peak = free_nodes;
}

}  // namespace delta::sim

// Host-side introspection counters for the simulation engine.
//
// The event queue and the kernel service path are the layers ROADMAP
// item 1 names as the remaining host-throughput headroom, and neither
// had any instrumentation: the guest-facing observer (src/obs) counts
// simulated work, not host work. EngineStats is the host-facing
// counterpart — how many events sit in the queue when one is
// scheduled, how cancels and their stale heap entries are reclaimed,
// where the slab high-water sits — collected only when explicitly
// enabled (EventQueue::enable_stats) so the default hot path keeps a
// single predictable `stats_ == nullptr` test per site.
//
// Everything in here is derived from simulation state, so for a fixed
// scenario the numbers are bit-identical across hosts, thread counts
// and reruns. Host *time* deliberately lives elsewhere (the exp runner
// measures it around a run) to keep these structs deterministic.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace delta::sim {

/// Power-of-two bucketed histogram for host-side engine counters.
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i); values at or above 2^31 collapse into the last
/// bucket. Fixed storage, trivially copyable and mergeable.
struct Log2Histogram {
  static constexpr std::size_t kBuckets = 33;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    const auto w = static_cast<std::size_t>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

  void add(std::uint64_t v) {
    ++buckets[bucket_of(v)];
    ++count;
    sum += v;
    if (v > max) max = v;
  }

  void merge(const Log2Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum += o.sum;
    max = std::max(max, o.max);
  }

  /// Index one past the highest non-empty bucket (0 when empty), so
  /// serializers can trim the fixed array to its used prefix.
  [[nodiscard]] std::size_t used() const {
    std::size_t n = kBuckets;
    while (n > 0 && buckets[n - 1] == 0) --n;
    return n;
  }
};

/// Counters populated by EventQueue (and surfaced through Simulator)
/// when engine stats are enabled. All totals are cumulative since
/// enable; peaks are high-water marks.
struct EngineStats {
  std::uint64_t pops = 0;
  /// Live events right after each schedule() — the heap size every pop
  /// works against. Its count is the number of schedules.
  Log2Histogram live_size;

  // SmallFn dispatch: inline closures vs heap-boxed oversized captures.
  std::uint64_t dispatch_inline = 0;
  std::uint64_t dispatch_boxed = 0;

  // cancel(): `dead` counts ids rejected as already fired/cancelled
  // (generation mismatch).
  std::uint64_t cancels = 0;
  std::uint64_t cancels_dead = 0;

  // Stale heap entries left behind by cancels.
  std::uint64_t heap_prunes = 0;       ///< stale entries dropped
  std::uint64_t heap_compactions = 0;  ///< full heap rebuilds

  // Memory high-water marks.
  std::uint64_t slab_peak = 0;       ///< slab nodes ever allocated
  std::uint64_t freelist_peak = 0;   ///< recycled-slot list high-water
  std::uint64_t footprint_peak = 0;  ///< footprint_bytes() high-water

  void merge(const EngineStats& o) {
    pops += o.pops;
    live_size.merge(o.live_size);
    dispatch_inline += o.dispatch_inline;
    dispatch_boxed += o.dispatch_boxed;
    cancels += o.cancels;
    cancels_dead += o.cancels_dead;
    heap_prunes += o.heap_prunes;
    heap_compactions += o.heap_compactions;
    slab_peak = std::max(slab_peak, o.slab_peak);
    freelist_peak = std::max(freelist_peak, o.freelist_peak);
    footprint_peak = std::max(footprint_peak, o.footprint_peak);
  }
};

}  // namespace delta::sim

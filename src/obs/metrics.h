// Lightweight metrics registry: named monotonic counters plus
// SampleSet-backed latency histograms that subsystems register into.
//
// One MetricsRegistry lives per Mpsoc (inside obs::Observer), never in a
// global — sweeps run many simulations concurrently and per-run state is
// what keeps reports byte-identical at any thread count. Names are
// string literals (MetricName's constructor is consteval), so the
// registry and every snapshot refer to a name instead of copying it, and
// a snapshot stays valid after its registry is gone. Registration
// returns stable references (entries never move), so hot paths resolve a
// name once and bump a cached pointer afterwards.
//
// Naming convention (see docs/OBSERVABILITY.md): dot-separated
// "<unit>.<metric>", lower_snake_case leaves, e.g. "bus.wait_cycles",
// "lock.acquires", "ddu.runs", "mem.alloc_latency".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.h"

namespace delta::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A metric name with static storage. The constructor is consteval, so
/// only a constant converts: a string literal, or a `static constexpr`
/// character array. A name built at run time is a compile error, not a
/// view that dangles once its buffer is gone.
class MetricName {
 public:
  // Implicit, so that counter("bus.words") reads as before.
  consteval MetricName(const char* name) : name_(name) {}
  [[nodiscard]] constexpr std::string_view view() const { return name_; }

 private:
  std::string_view name_;
};

/// Fixed-shape summary of a histogram, detached from its sample storage.
struct HistogramSummary {
  HistogramSummary() = default;
  // Implicit, so that a SampleSet assigns straight to a summary field.
  HistogramSummary(const sim::SampleSet& s)
      : count(s.count()),
        mean(s.mean()),
        min(s.min()),
        max(s.max()),
        stddev(s.stddev()),
        p95(s.percentile(0.95)) {}

  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  double p95 = 0.0;
};

/// Point-in-time copy of every registered metric, sorted by name. The
/// names view the registered literals, which live as long as the program.
struct MetricsSnapshot {
  std::vector<std::pair<std::string_view, std::uint64_t>> counters;
  std::vector<std::pair<std::string_view, HistogramSummary>> histograms;
};

/// Registry of named counters and histograms. counter()/histogram()
/// create on first use and always return the same object for a name, so
/// callers may cache the reference across the whole simulation.
class MetricsRegistry {
 public:
  // The references handed out point into the registry itself, so it is
  // neither copied nor moved.
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(MetricName name) { return counters_.get(name.view()); }
  sim::SampleSet& histogram(MetricName name) {
    return histograms_.get(name.view());
  }

  /// The value of counter `name`, or 0 if nobody registered it. Unlike
  /// counter(), a read never adds the name to the registry.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const {
    const Counter* c = counters_.find(name);
    return c ? c->value() : 0;
  }

  /// Deterministic (name-sorted) copy of the current values.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  /// Entries in blocks of N that never move: the first block is part of
  /// the table, later ones are allocated one at a time, so there is no
  /// cap on the number of names. Each entry links to the next name in
  /// sorted order, so registration sorts each name in once and a
  /// snapshot walks the links instead of sorting.
  template <typename T, std::size_t N>
  class Table {
   public:
    T& get(std::string_view name) {
      std::size_t* link = &head_;
      for (; *link != kEnd; link = &at(*link).next) {
        Entry& e = at(*link);
        const int order = e.name.compare(name);
        if (order == 0) return e.value;
        if (order > 0) break;
      }
      if (size_ == N * (1 + spill_.size()))
        spill_.push_back(std::make_unique<Block>());
      Entry& e = at(size_);
      e.name = name;
      e.next = *link;
      *link = size_++;
      return e.value;
    }
    [[nodiscard]] const T* find(std::string_view name) const {
      for (std::size_t i = head_; i != kEnd; i = at(i).next) {
        const int order = at(i).name.compare(name);
        if (order == 0) return &at(i).value;
        if (order > 0) break;
      }
      return nullptr;
    }
    /// Calls f(name, value) for every entry, in name order.
    template <typename F>
    void for_each(F&& f) const {
      for (std::size_t i = head_; i != kEnd; i = at(i).next)
        f(at(i).name, at(i).value);
    }
    [[nodiscard]] std::size_t size() const { return size_; }

   private:
    static constexpr std::size_t kEnd = SIZE_MAX;
    struct Entry {
      std::string_view name;
      T value;
      std::size_t next = kEnd;  ///< the entry with the next name
    };
    using Block = std::array<Entry, N>;

    Entry& at(std::size_t i) {
      return i < N ? first_[i] : (*spill_[i / N - 1])[i % N];
    }
    const Entry& at(std::size_t i) const {
      return i < N ? first_[i] : (*spill_[i / N - 1])[i % N];
    }

    Block first_{};
    std::vector<std::unique_ptr<Block>> spill_;
    std::size_t head_ = kEnd;  ///< the entry with the first name
    std::size_t size_ = 0;
  };

  // An RTOS1-7 Mpsoc registers 17-20 counters (one more when it traces)
  // and 3 histograms, so its registry fits in the first blocks and
  // allocates nothing.
  Table<Counter, 32> counters_;
  Table<sim::SampleSet, 4> histograms_;
};

}  // namespace delta::obs

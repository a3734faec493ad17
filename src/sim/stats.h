// Small statistics accumulators used by the benches to report the
// "averaged" values the paper's tables quote (algorithm run time, lock
// latency, ...).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/sim_time.h"

namespace delta::sim {

/// Streaming min/max/mean/sum/variance accumulator over cycle
/// measurements. Variance uses Welford's online algorithm, so it stays
/// numerically stable over long sweeps.
class Accumulator {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const double delta = v - welford_mean_;
    welford_mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - welford_mean_);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

  /// Population variance (÷n). Returns 0 when empty; a single sample has
  /// zero spread.
  [[nodiscard]] double variance() const {
    return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  /// Population standard deviation.
  [[nodiscard]] double stddev() const;

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double welford_mean_ = 0.0;
  double m2_ = 0.0;
};

/// Accumulator that also retains samples for percentile queries.
///
/// add() only appends: the hot paths that sample every lock, allocation
/// and algorithm run pay no Welford update. The first add() reserves
/// kFirstBlock samples in one allocation, which holds all of a short
/// run's samples; growing from empty would take up to seven. The
/// summary is folded over the samples on the first read after an add,
/// in insertion order, so it is the same floating-point result bit for
/// bit as an Accumulator fed one add at a time. Reads fold and sort
/// under const, so a SampleSet must not be read from two threads at
/// once.
class SampleSet {
 public:
  void add(double v) {
    if (samples_.capacity() == 0) samples_.reserve(kFirstBlock);
    samples_.push_back(v);
    sorted_ = false;
  }

  [[nodiscard]] const Accumulator& summary() const {
    fold();
    return acc_;
  }
  [[nodiscard]] std::uint64_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const { return summary().mean(); }
  [[nodiscard]] double max() const { return summary().max(); }
  [[nodiscard]] double min() const { return summary().min(); }
  [[nodiscard]] double stddev() const { return summary().stddev(); }

  /// p in [0,1]; nearest-rank percentile. Returns 0 when empty. The
  /// sample vector is sorted lazily on first query and the order is
  /// cached until the next add().
  [[nodiscard]] double percentile(double p) const;

 private:
  static constexpr std::size_t kFirstBlock = 64;

  /// Feed acc_ the samples added since the last fold. They sit unsorted
  /// past folded_ in insertion order: percentile() folds before sorting.
  void fold() const {
    for (; folded_ < samples_.size(); ++folded_) acc_.add(samples_[folded_]);
  }

  mutable Accumulator acc_;
  mutable std::vector<double> samples_;
  mutable std::size_t folded_ = 0;  ///< samples_[0, folded_) are in acc_
  mutable bool sorted_ = false;
};

/// Speed-up per Hennessy & Patterson as used in Tables 5/7/9:
/// (slow - fast) / fast, expressed as a percentage.
constexpr double speedup_percent(double slow, double fast) {
  return fast == 0.0 ? 0.0 : (slow - fast) / fast * 100.0;
}

/// Multiplicative speed-up (slow / fast), e.g. the "1408X" in Table 5.
constexpr double speedup_factor(double slow, double fast) {
  return fast == 0.0 ? 0.0 : slow / fast;
}

}  // namespace delta::sim

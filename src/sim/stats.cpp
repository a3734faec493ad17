#include "sim/stats.h"

#include <cmath>

namespace delta::sim {

double Accumulator::stddev() const { return std::sqrt(variance()); }

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    fold();  // the summary needs insertion order; sorting loses it
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples_.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(idx, samples_.size() - 1)];
}

}  // namespace delta::sim

#include "obs/metrics.h"

namespace delta::obs {

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  counters_.for_each([&](std::string_view name, const Counter& c) {
    snap.counters.emplace_back(name, c.value());
  });
  snap.histograms.reserve(histograms_.size());
  histograms_.for_each([&](std::string_view name, const sim::SampleSet& h) {
    snap.histograms.emplace_back(name, h);
  });
  return snap;
}

}  // namespace delta::obs

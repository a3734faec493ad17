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
    HistogramSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    s.stddev = h.stddev();
    s.p95 = h.percentile(0.95);
    snap.histograms.emplace_back(name, s);
  });
  return snap;
}

}  // namespace delta::obs

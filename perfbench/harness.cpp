#include "harness.h"

#include <ctime>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "soc/engine_report.h"

namespace perfbench {

std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail tail(const std::vector<double>& v) {
  for (const double p : {99.0, 90.0}) {
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(v.size()) * (100.0 - p) / 100.0));
    if (beyond >= 10) return {quantile(v, p / 100.0), p, beyond};
  }
  return {quantile(v, 0.5), 50.0, v.size() / 2};
}

void Digest::bytes(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

// The calendar-queue counters below are slated for deletion together with
// the calendar itself; read them only while they exist, so the benchmark
// keeps building (and reports 0 wasted scan / overflow) once they are gone.
template <class Q>
std::uint64_t overflow_scheduled(const Q& q) {
  if constexpr (requires { q.scheduled_overflow; }) return q.scheduled_overflow;
  else return 0;
}
template <class Q>
std::uint64_t ring_scheduled(const Q& q) {
  if constexpr (requires { q.scheduled_ring; }) return q.scheduled_ring;
  else return 0;
}
template <class Q>
std::uint64_t scan_buckets(const Q& q) {
  if constexpr (requires { q.scan_distance.sum; }) return q.scan_distance.sum;
  else return 0;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

void keep_min(std::vector<double>& best, const std::vector<double>& pass) {
  if (best.empty()) best = pass;
  for (std::size_t i = 0; i < best.size(); ++i)
    best[i] = std::min(best[i], pass[i]);
}

}  // namespace

void Verified::add(const delta::soc::EngineReport& e) {
  events += e.events_dispatched;
  pops += e.queue.pops;
  overflow_scheduled += perfbench::overflow_scheduled(e.queue);
  scheduled += perfbench::overflow_scheduled(e.queue) + ring_scheduled(e.queue);
  scan_buckets += perfbench::scan_buckets(e.queue);
  footprint_bytes_max = std::max(footprint_bytes_max, e.queue_footprint_bytes);
  service_windows += e.kernel.service_windows;
  resched_calls += e.kernel.resched_calls;
  resched_scans += e.kernel.resched_scans;
  give_up_episodes += e.kernel.give_up_episodes;
}

void Verified::put_layers(Metrics& out, const std::string& w,
                          bool contended) const {
  put(out, "sim.events_per_run." + w, ratio(events, cells), "count");
  if (contended)
    put(out, "sim.overflow_share." + w, ratio(overflow_scheduled, scheduled),
        "frac");
  put(out, "sim.scan_buckets_per_pop." + w, ratio(scan_buckets, pops),
      "count");
  put(out, "sim.queue_footprint_kb." + w,
      static_cast<double>(footprint_bytes_max) / 1024.0, "KiB");
  put(out, "rtos.service_windows_per_run." + w, ratio(service_windows, cells),
      "count");
  put(out, "rtos.reschedule_scan_share." + w, ratio(resched_scans, resched_calls),
      "frac");
  if (contended)
    put(out, "rtos.give_up_episodes_per_run." + w,
        ratio(give_up_episodes, cells), "count");
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

Timed measure(Workload& w, double seconds, std::size_t min_passes,
              bool traced) {
  Timed t;
  std::vector<double> cell_us(w.cells());
  const std::uint64_t start = cpu_ns();
  const double wall0 = wall_s();
  while (t.passes < min_passes ||
         static_cast<double>(cpu_ns() - start) * 1e-9 < seconds) {
    const std::string d = w.pass(cell_us, t.failed);
    keep_min(t.best_us, cell_us);
    if (t.digest.empty()) t.digest = d;
    else if (d != t.digest) t.digests_stable = false;
    t.attempted += w.cells();
    ++t.passes;
    if (traced) {
      w.traced_pass(cell_us, t.failed);
      keep_min(t.best_traced_us, cell_us);
      t.attempted += w.cells();
    }
    // A host so loaded that CPU time crawls must still end the run.
    if (wall_s() - wall0 > 2.0 * seconds + 20.0) break;
  }
  return t;
}

}  // namespace perfbench

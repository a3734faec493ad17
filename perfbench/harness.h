// Shared plumbing of the benchmark: the CPU clock, order statistics, the
// output digest, the metric sink, the workload interface and the pass
// loop that main.cpp drives.
//
// Every time here is process CPU time (CLOCK_PROCESS_CPUTIME_ID): the
// benchmark is single-threaded, and the CPU clock is immune to
// preemption. It does not filter co-tenant contention for shared caches
// and cores, which on a small shared host swings throughput by a quarter
// in phases lasting seconds. So each cell runs once per pass and its
// cost is its fastest pass: a cell needs only one quiet moment per run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace delta::soc {
struct EngineReport;
}

namespace perfbench {

/// Process CPU time in nanoseconds.
[[nodiscard]] std::uint64_t cpu_ns();

/// Wall time in seconds (only to cap a run on an overloaded host).
[[nodiscard]] double wall_s();

/// Quantile by linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The highest of p99/p90 that leaves at least ten samples beyond it,
/// falling back to p50 for tiny samples.
struct Tail {
  double value = 0;
  double percentile = 0;   ///< 99, 90 or 50
  std::size_t beyond = 0;  ///< samples above that percentile's rank
};
[[nodiscard]] Tail tail(const std::vector<double>& v);

/// FNV-1a 64 over whatever the caller feeds it.
class Digest {
 public:
  void bytes(std::string_view s);
  void u64(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Ordered name -> (value, unit) list; printed as the result's "metrics".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

inline void put(Metrics& m, std::string name, double value, std::string unit) {
  m.push_back({std::move(name), value, std::move(unit)});
}

/// Engine-report counts of one verification pass (the untimed pass with
/// MpsocConfig::engine_stats on); also yields the events one timed pass
/// dispatches, since simulation is deterministic.
struct Verified {
  bool ok = true;             ///< cell signatures match the timed pass
  std::uint64_t failed = 0;   ///< cells whose semantic check failed
  std::uint64_t cells = 0;
  std::uint64_t events = 0;   ///< Simulator::events_dispatched, summed
  std::uint64_t pops = 0;
  std::uint64_t overflow_scheduled = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t scan_buckets = 0;
  std::uint64_t footprint_bytes_max = 0;
  std::uint64_t service_windows = 0;
  std::uint64_t resched_calls = 0;
  std::uint64_t resched_scans = 0;
  std::uint64_t give_up_episodes = 0;

  /// Fold one simulation's engine report in.
  void add(const delta::soc::EngineReport& e);
  /// The sim.* and rtos.* layer counts, suffixed ".<workload>". The
  /// overflow share and give-up episodes only where they are not 0 by
  /// construction (`contended`: the large fuzz geometry).
  void put_layers(Metrics& out, const std::string& workload,
                  bool contended) const;
};

/// One benchmark workload: a fixed list of cells (runs) built from the
/// seed. setup() may be called repeatedly (set-up time is the median of
/// several); every other call uses the last set-up.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Build the inputs from `seed` and run the warm-up.
  virtual void setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::size_t cells() const = 0;
  /// Run every cell once, tracing off: writes each cell's CPU
  /// microseconds (serialization share included) to `cell_us`, counts
  /// cells whose semantic check failed, records each cell's signature
  /// and returns the pass output digest.
  virtual std::string pass(std::vector<double>& cell_us,
                           std::uint64_t& failed) = 0;
  /// The same cells with a span around every call into a module (after
  /// at least one pass()): writes each cell's traced total to `cell_us`
  /// and adds the span times to the workload's layer accumulators.
  virtual void traced_pass(std::vector<double>& cell_us,
                           std::uint64_t& failed) = 0;
  /// The layer metrics the traced passes accumulated.
  virtual void put_spans(Metrics& out) const = 0;
  /// Untimed pass with engine stats on; compares each cell's signature
  /// with the last pass().
  virtual Verified verify() = 0;
  /// Output digest of the pinned reference input (fixed seed).
  virtual std::string reference_digest() = 0;
};

/// `quick` shrinks the input set to a few cells (the self-check); the
/// reference input keeps its full size.
std::unique_ptr<Workload> make_sweep_mixed(bool quick);
std::unique_ptr<Workload> make_fuzz_large(bool quick);
std::unique_ptr<Workload> make_stress(bool quick);

/// What a run of passes measured. Cell costs are minima over passes.
struct Timed {
  std::uint64_t attempted = 0;  ///< cells run, every pass counted
  std::uint64_t failed = 0;
  std::size_t passes = 0;
  std::vector<double> best_us;         ///< per cell, untraced
  std::vector<double> best_traced_us;  ///< per cell, traced (if asked)
  bool digests_stable = true;          ///< every pass hashed the same
  std::string digest;                  ///< the pass output digest
};

/// Runs passes until `seconds` of CPU time have gone and at least
/// `min_passes` were made (a wall-clock cap guards overloaded hosts).
/// With `traced`, every untraced pass is followed by a traced one.
Timed measure(Workload& w, double seconds, std::size_t min_passes,
              bool traced = false);

[[nodiscard]] double sum(const std::vector<double>& v);

/// The sim/rtos/hw/deadlock/bus/rag microbenches, about `seconds` CPU
/// seconds in total.
void layer_microbenches(double seconds, Metrics& out);

}  // namespace perfbench

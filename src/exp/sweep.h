// Experiment sweeps — the paper's evaluation method as a subsystem.
//
// Table 3's seven RTOS/MPSoC configurations are evaluated against
// workloads and seeds as a cross product: every (configuration,
// workload, seed) cell is one share-nothing Mpsoc simulation. SweepSpec
// describes the matrix, expand() flattens it into RunSpecs with
// deterministic per-run seeds, and execute_run() turns one RunSpec into
// a RunResult. The thread-pool fan-out lives in exp/runner.h; JSON
// reporting in exp/json.h; the built-in workload library in
// exp/workloads.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/critpath.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "soc/delta_framework.h"
#include "soc/engine_report.h"

namespace delta::exp {

/// A workload that can be instantiated on any configured Mpsoc.
struct Workload {
  std::string name;
  /// Optional MpsocConfig adjustment applied before construction
  /// (lock ceilings, resource tables, ...).
  std::function<void(soc::MpsocConfig&)> tune;
  /// Create the tasks into a freshly built Mpsoc. `rng` is seeded with
  /// the run's derived seed, so a builder that draws from it yields a
  /// different-but-reproducible task mix per seed.
  std::function<void(soc::Mpsoc&, sim::Rng&)> build;
};

/// One point of the configuration axis: a named DeltaConfig plus an
/// optional low-level MpsocConfig adjustment (applied after the
/// workload's tune hook, so config points have the last word).
struct ConfigPoint {
  std::string name;
  soc::DeltaConfig config;
  std::function<void(soc::MpsocConfig&)> tune;
};

/// The Table 3 row `p` as a config point named to_string(p).
[[nodiscard]] ConfigPoint preset_point(soc::RtosPreset p);

/// All seven Table 3 rows, in paper order.
[[nodiscard]] std::vector<ConfigPoint> all_preset_points();

/// A config point by name: any Table 3 spelling ("4" / "RTOS4" /
/// "kRtos4"), or a protocol-zoo configuration — "bankers"
/// (claim-everything Banker's avoidance, soc::bankers_config()) or
/// "wfg-recovery" (periodic wait-for-graph scan + lowest-cost restart,
/// soc::wfg_recovery_config()). Throws std::invalid_argument otherwise.
[[nodiscard]] ConfigPoint named_config_point(std::string_view name);

/// A cross product of configurations x workloads x seeds.
struct SweepSpec {
  std::vector<ConfigPoint> configs;
  std::vector<Workload> workloads;
  std::vector<std::uint64_t> seeds = {0};  ///< one run per seed
  std::uint64_t base_seed = 0xde17a;       ///< mixed into every run seed
  sim::Cycles run_limit = 50'000'000;      ///< per-run simulation cap
  bool trace = false;  ///< enable per-run kernel/bus tracing (slow)
  /// Structured-trace ring capacity per run (obs::TraceRecorder); 0
  /// keeps tracing disabled. Enabled runs carry their retained events in
  /// RunResult::trace_events for the Chrome exporter (exp/trace_export.h).
  std::size_t trace_capacity = 0;
  /// Attach the cycle-attribution profiler: every ok run carries an
  /// obs::ProfileReport in RunResult::profile (serialized as the run's
  /// "profile" block by exp/json.h). Pair with trace_capacity > 0 —
  /// spin/service/wait attribution comes from the structured trace;
  /// without it only the phase-level buckets are populated.
  bool profile = false;
  /// Windowed-sampler period forwarded to MpsocConfig::sample_period;
  /// 0 disables sampling. A profiled run's samples land in
  /// RunResult::timeseries, and with engine_stats the engine gauges in
  /// RunResult::engine_timeseries.
  sim::Cycles sample_period = 0;
  /// Collect engine introspection (MpsocConfig::engine_stats) into
  /// RunResult::engine; serialized as each run's "engine" block and a
  /// campaign-level roll-up. Everything emitted is derived from
  /// simulated state, so reports stay byte-identical across thread
  /// counts; with the flag off the bytes match a pre-flag report
  /// exactly (strict report neutrality).
  bool engine_stats = false;
  /// Additionally serialize per-run host CPU time and the p50/p99 /
  /// slowest-run roll-up. Host time is measured whenever engine_stats
  /// is on, but writing it is opt-in because wall-clock is
  /// nondeterministic — never enable in a golden flow.
  bool engine_host_times = false;
};

/// Derive the seed for one cell. Pure function of the cell coordinates
/// only — never of thread ids or execution order — which is what makes
/// sweep output independent of the thread count.
[[nodiscard]] std::uint64_t derive_run_seed(std::uint64_t base_seed,
                                            std::size_t config_index,
                                            std::size_t workload_index,
                                            std::uint64_t seed);

/// A fully resolved cell of the cross product. Holds pointers into the
/// owning SweepSpec; valid only while that spec is alive.
struct RunSpec {
  std::size_t index = 0;  ///< position in expansion order
  const ConfigPoint* config = nullptr;
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;      ///< the user-supplied seed value
  std::uint64_t run_seed = 0;  ///< derived: seeds the run's Rng
};

/// Flatten the spec in config-major, then workload, then seed order.
[[nodiscard]] std::vector<RunSpec> expand(const SweepSpec& spec);

/// Measurements of one simulation run. Everything the paper's tables
/// quote, collected generically from the kernel and its backends.
struct RunResult {
  std::size_t index = 0;
  std::string config;
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t run_seed = 0;

  bool ok = false;     ///< run constructed and simulated without throwing
  std::string error;   ///< exception text when !ok

  sim::Cycles sim_cycles = 0;     ///< simulator time when the run ended
  sim::Cycles last_finish = 0;    ///< last task completion time
  sim::Cycles app_run_time = 0;   ///< deadlock_time if halted, else last_finish
  bool all_finished = false;
  bool deadlock_detected = false;
  sim::Cycles deadlock_time = 0;
  std::uint64_t recoveries = 0;
  std::size_t deadline_misses = 0;

  double algorithm_avg = 0.0;  ///< deadlock-strategy mean cycles
  std::uint64_t algorithm_invocations = 0;

  obs::HistogramSummary lock_latency;   ///< uncontended acquire service time
  obs::HistogramSummary lock_delay;     ///< contended request-to-grant time
  obs::HistogramSummary alloc_latency;  ///< allocator per-call PE cycles

  sim::Cycles mgmt_cycles = 0;   ///< total memory-management time
  std::uint64_t mgmt_calls = 0;

  /// Full metrics-registry snapshot of the run's Mpsoc (every subsystem
  /// counter/histogram, name-sorted; deterministic).
  obs::MetricsSnapshot metrics;

  /// Structured trace (only when SweepSpec::trace_capacity > 0).
  std::vector<obs::Event> trace_events;
  std::uint64_t trace_dropped = 0;

  /// The run's PE count (names trace threads; the extra bus master is
  /// the hardware-unit port).
  std::size_t pe_count = 0;

  /// Cycle-attribution profile (only when SweepSpec::profile).
  bool has_profile = false;
  obs::ProfileReport profile;
  /// Windowed samples (non-empty when SweepSpec::profile and
  /// SweepSpec::sample_period > 0).
  obs::TimeSeries timeseries;

  /// Engine introspection (enabled only when SweepSpec::engine_stats).
  soc::EngineReport engine;
  /// Engine gauge samples (engine_stats with sample_period > 0).
  obs::TimeSeries engine_timeseries;
  /// Host CPU nanoseconds this run cost its worker thread
  /// (CLOCK_THREAD_CPUTIME_ID); 0 unless SweepSpec::engine_stats.
  std::uint64_t host_cpu_ns = 0;
};

/// Execute one cell: build the Mpsoc, instantiate the workload, run the
/// simulation, and collect the result. Exceptions are captured into
/// RunResult::error rather than propagated, so one bad cell cannot take
/// down a batch.
[[nodiscard]] RunResult execute_run(const RunSpec& rs,
                                    const SweepSpec& spec);

}  // namespace delta::exp

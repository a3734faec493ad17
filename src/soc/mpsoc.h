// The assembled MPSoC.
//
// One object owning the whole modeled system of paper §5.1: the
// simulator, the shared bus (100 MHz, 3-cycle first word), the 16 MB L2,
// the address map, per-PE L1 caches, the four resources (VI, IDCT/MPEG,
// DSP, WI), and the RTOS kernel wired to the configured deadlock
// strategy, lock backend and memory backend. Construct it through
// delta_framework.h (the paper's GUI flow) or directly for tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/address_map.h"
#include "bus/bus.h"
#include "mem/l1_cache.h"
#include "mem/l2_memory.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "rtos/kernel.h"
#include "sim/simulator.h"
#include "soc/engine_report.h"

namespace delta::soc {

/// Which deadlock mechanism the configuration uses (Table 3 rows).
enum class DeadlockComponent : std::uint8_t {
  kNone,          ///< plain RTOS (RTOS5 baseline)
  kPddaSoftware,  ///< RTOS1
  kDdu,           ///< RTOS2
  kDaaSoftware,   ///< RTOS3
  kDau,           ///< RTOS4
  kBankers,       ///< Banker's max-claims avoidance in software
  kWfgRecovery,   ///< periodic wait-for-graph detection (+ recovery)
};

/// Which lock mechanism.
enum class LockComponent : std::uint8_t {
  kSoftwarePi,  ///< RTOS5: priority inheritance in software
  kSoclc,       ///< RTOS6: SoCLC with hardware IPCP
};

/// Which allocator.
enum class MemoryComponent : std::uint8_t {
  kMallocFree,  ///< glibc-style software heap
  kSocdmmu,     ///< RTOS7
};

/// Resource descriptor (the paper's q1..q4 devices).
struct ResourceSpec {
  std::string name;
  sim::Cycles processing_cycles = 0;  ///< nominal per-job compute time
};

/// Full system configuration.
struct MpsocConfig {
  std::size_t pe_count = 4;
  std::vector<ResourceSpec> resources = {
      {"VI", 8000},      // video capture interface (q1)
      {"IDCT", 23600},   // MPEG/IDCT unit; 64x64 test frame (§5.3)
      {"DSP", 12000},    // q3
      {"WI", 6000},      // wireless interface (q4)
  };
  std::size_t max_tasks = 5;  ///< matrix columns (5x5 units in the paper)

  /// Deadlock-unit row count. The paper's MPSoC has four devices but its
  /// DDU/DAU are generated for five processes x five resources (§5.3,
  /// §5.4); the spare row simply stays empty.
  std::size_t deadlock_unit_resources = 5;

  /// Deadlock-unit sharding (hierarchical mode). 1 (or 0) keeps the
  /// paper's monolithic DDU/DAU; > 1 splits resources and tasks into
  /// that many contiguous clusters, each with its own small unit, plus
  /// an inter-cluster resolver that escalates cross-cluster residues to
  /// software (deadlock/hierarchical.h). Values above min(rows, tasks)
  /// are clamped. Ignored for software/none deadlock components.
  std::size_t deadlock_clusters = 1;

  DeadlockComponent deadlock = DeadlockComponent::kNone;
  LockComponent lock = LockComponent::kSoftwarePi;
  MemoryComponent memory = MemoryComponent::kMallocFree;

  rtos::ServiceCosts costs;
  bus::BusTiming bus_timing;
  hw::SoclcConfig soclc;
  std::vector<rtos::Priority> lock_ceilings;
  hw::SocdmmuConfig socdmmu;
  std::uint64_t heap_base = 0x0080'0000;       ///< software heap arena
  std::uint64_t heap_bytes = 8ULL * 1024 * 1024;
  bool stop_on_deadlock = true;
  rtos::RecoveryPolicy recovery = rtos::RecoveryPolicy::kNone;
  /// Periodic wait-for-graph scan period (kWfgRecovery); 0 = no scans.
  sim::Cycles detection_period = 0;
  /// Banker's max-claims table (kBankers): claims[t] lists every
  /// resource task t may ever request; empty inner list = claims all.
  std::vector<std::vector<rtos::ResourceId>> claims;
  bool spin_short_locks = false;  ///< short-CS spin protocol (§2.3.1)
  sim::Cycles time_slice = 0;
  bool trace = true;
  /// Forwarded to KernelConfig::unfused_services: replay the pre-fusion
  /// service event shape (debug/differential-test mode; reports must
  /// stay byte-identical either way).
  bool unfused_services = false;
  /// Forwarded to KernelConfig::record_transitions (the unbounded phase
  /// log behind utilization_report()/profiling). Leave on unless the
  /// run is long and nothing reads it.
  bool record_transitions = true;
  /// Structured-trace ring capacity (obs::TraceRecorder). 0 keeps the
  /// recorder disabled — the zero-cost default for sweeps and benches.
  std::size_t trace_capacity = 0;
  /// Windowed-sampling period in cycles. 0 (the default) disables the
  /// sampler; > 0 makes run() probe per-PE busy time, bus traffic, lock
  /// spinning, ready-queue depth and heap bytes at every period boundary
  /// into time_series().
  sim::Cycles sample_period = 0;
  /// Collect host-side engine introspection (sim/engine_stats.h +
  /// rtos/engine_counters.h), harvested via engine_report(). Strictly
  /// report-neutral: nothing here feeds the observer's metrics, so all
  /// existing report bytes are unchanged. With sample_period > 0 the
  /// sampler additionally fills engine_time_series() gauges.
  bool engine_stats = false;
};

/// The live system, templated over the kernel's observer policy (see
/// rtos/observer_policy.h). `Mpsoc` — the historical, fully-observing
/// system — is an alias below; `FastMpsoc` assembles the no-observer
/// kernel for benches and sweeps that never read metrics. The two
/// simulate byte-identically; only host-side instrumentation differs.
template <class ObserverPolicy>
class BasicMpsoc {
 public:
  using KernelType = rtos::BasicKernel<ObserverPolicy>;

  explicit BasicMpsoc(MpsocConfig cfg);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] bus::SharedBus& bus() { return *bus_; }
  [[nodiscard]] mem::L2Memory& l2() { return *l2_; }
  [[nodiscard]] KernelType& kernel() { return *kernel_; }
  [[nodiscard]] const bus::AddressMap& address_map() const { return map_; }
  [[nodiscard]] const MpsocConfig& config() const { return cfg_; }
  [[nodiscard]] mem::L1Cache& l1(std::size_t pe) { return l1_.at(pe); }

  /// The system-wide observability bundle: every subsystem's counters,
  /// histograms and (when trace_capacity > 0) the structured trace.
  [[nodiscard]] obs::Observer& observer() { return obs_; }
  [[nodiscard]] const obs::Observer& observer() const { return obs_; }

  /// Windowed samples collected by the last run(). Empty unless
  /// cfg.sample_period > 0. Busy/words/polls tracks carry per-window
  /// deltas (their totals reproduce the end-of-run counters exactly);
  /// ready-depth and heap-bytes tracks are instantaneous gauges.
  [[nodiscard]] const obs::TimeSeries& time_series() const { return series_; }

  /// Engine gauge samples (queue depth, queue footprint) collected by
  /// sampled runs when cfg.engine_stats is on. Kept separate from time_series() so profile reports — which fold
  /// every time_series() track — stay byte-identical with stats on.
  [[nodiscard]] const obs::TimeSeries& engine_time_series() const {
    return engine_series_;
  }

  /// Snapshot of the run's engine introspection. `enabled` is false
  /// (and everything zero) unless cfg.engine_stats was set.
  [[nodiscard]] EngineReport engine_report() const;

  /// Resource index by name ("IDCT" -> 1). Throws when unknown.
  [[nodiscard]] rtos::ResourceId resource(const std::string& name) const;

  /// Nominal processing time of a resource (for workload authoring).
  [[nodiscard]] sim::Cycles processing_cycles(rtos::ResourceId r) const {
    return cfg_.resources.at(r).processing_cycles;
  }

  /// Start the kernel and run the simulation to completion (or `limit`).
  sim::Cycles run(sim::Cycles limit = sim::kNeverCycles);

 private:
  MpsocConfig cfg_;
  sim::Simulator sim_;
  obs::Observer obs_;  ///< per-system, so concurrent sweeps never share
  std::unique_ptr<bus::SharedBus> bus_;
  std::unique_ptr<mem::L2Memory> l2_;
  bus::AddressMap map_;
  std::vector<mem::L1Cache> l1_;
  std::unique_ptr<KernelType> kernel_;
  obs::TimeSeries series_;  ///< filled by run() when sample_period > 0
  /// Engine gauges; filled only when sample_period > 0 && engine_stats.
  obs::TimeSeries engine_series_;

  /// Mirror the trace ring's drop count into the "trace.dropped" counter.
  void stamp_trace_dropped();
};

/// The fully-observing system (the historical `Mpsoc` type).
using Mpsoc = BasicMpsoc<rtos::obs_policy::ObserveAll>;
/// Observer-free system: kernel-side trace/metric sites compiled out.
/// Sampled runs (sample_period > 0) require the observing system.
using FastMpsoc = BasicMpsoc<rtos::obs_policy::ObserveNone>;

extern template class BasicMpsoc<rtos::obs_policy::ObserveAll>;
extern template class BasicMpsoc<rtos::obs_policy::ObserveNone>;

}  // namespace delta::soc

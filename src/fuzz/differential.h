// Differential scenario execution.
//
// The paper's central claim is that moving RTOS services into hardware
// (DDU/DAU/SoCLC/SoCDMMU) changes cycle counts but not behaviour. This
// runner makes that claim testable at system scale: the same Scenario
// is instantiated on two or more Table 3 configurations and the
// *behavioural* outcomes are cross-checked while cycle counts are
// deliberately ignored (the compared backends charge intentionally
// different service costs, so event interleavings may differ — every
// check below is robust to that).
//
// Two layers of checking:
//  * per-run invariants, keyed on the configuration's semantics class —
//    avoidance configurations must complete every task with an empty
//    final allocation state; detection configurations must either
//    complete or halt on a deadlock whose tracked state really contains
//    a cycle (per the rag oracle); unmanaged configurations may
//    silently deadlock, but only with a genuine cycle. All
//    configurations must keep kernel-held sets consistent with the
//    strategy matrix, free every balanced allocation, and never lose a
//    wakeup (an unfinished task with no justifying cycle is a failure).
//  * cross-configuration checks — if one side completes every task, the
//    other must too unless it can justify the stall with a detected or
//    oracle-confirmed deadlock; when both sides complete, their service
//    counts (lock acquires/releases, allocs/frees, and for
//    non-avoidance pairs the deadlock-manager request/release counts)
//    must agree exactly.
#pragma once

#include <string>
#include <vector>

#include "fuzz/scenario.h"
#include "soc/delta_framework.h"
#include "soc/engine_report.h"

namespace delta::fuzz {

/// Behavioural contract class of a configuration (what the per-run
/// invariants may demand of it).
enum class Semantics : std::uint8_t {
  kAvoid,      ///< RTOS3/RTOS4: deadlock can never happen
  kDetect,     ///< RTOS1/RTOS2: halts on detection (stop_on_deadlock)
  kUnmanaged,  ///< RTOS5/6/7: may deadlock silently (with a real cycle)
  kRecover,    ///< periodic detection + recovery: must complete every task
};

const char* semantics_name(Semantics s);

/// One configuration taking part in a differential run.
struct SystemUnderTest {
  std::string name;        ///< e.g. "RTOS4" or "DAU"
  soc::RtosPreset preset;  ///< Table 3 row providing the DeltaConfig
  Semantics semantics;
  /// Deadlock-unit sharding: 1 = monolithic (the paper's unit), > 1 =
  /// that many clusters, 0 = auto (ClusterMap::default_clusters for the
  /// scenario's resource count).
  std::size_t clusters = 1;
  /// Protocol override beyond the preset's Table 3 component. "" keeps
  /// the preset as-is; "bankers" swaps the deadlock component for
  /// Banker's avoidance with claims derived from the scenario's scripts;
  /// "wfg" swaps in the periodic wait-for-graph scan with lowest-cost
  /// recovery. Anything else throws.
  std::string protocol{};
};

/// A named set of configurations compared against each other.
struct BackendPair {
  std::string name;         ///< CLI spelling, e.g. "daa-dau"
  std::string description;
  std::vector<SystemUnderTest> suts;
  /// True for pairs the default campaign runs when no --pairs are named.
  /// The sharded pairs opt out so golden-pinned campaign reports keep
  /// their pre-sharding pair list; they still run when named explicitly.
  bool default_campaign = true;
};

/// The built-in pairs: "pdda-ddu", "daa-dau", "locks" (sw PI vs SoCLC),
/// "heap" (malloc/free vs SoCDMMU), "presets" (all of RTOS1-7), plus the
/// non-default pairs "ddu-sharded" (PDDA vs DDU vs sharded DDU),
/// "dau-sharded" (DAA vs DAU vs sharded DAU), "bankers-vs-daa"
/// (Banker's max-claims avoidance vs the DAA) and "wfg-recovery"
/// (periodic wait-for-graph scan + restart recovery vs the halting
/// PDDA).
[[nodiscard]] const std::vector<BackendPair>& standard_pairs();

/// Look one up by name ("all" is not valid here; callers expand it).
/// Throws std::invalid_argument on unknown names.
[[nodiscard]] const BackendPair& find_pair(const std::string& name);

/// Behavioural outcome of one scenario on one configuration. Everything
/// cycle-count-valued is diagnostic only; checks never compare it.
struct RunOutcome {
  std::string sut;
  bool ok = false;            ///< constructed + simulated without throwing
  std::string error;          ///< exception text when !ok
  bool fault_armed = false;   ///< the requested fault was recognized

  bool all_finished = false;
  bool deadlock_detected = false;
  bool halted = false;
  bool hit_limit = false;     ///< simulator stopped at run_limit, not idle
  bool state_empty = false;   ///< strategy matrix empty at the end
  bool oracle_cycle = false;  ///< rag oracle finds a cycle at the end
  std::vector<bool> finished;             ///< per task
  std::vector<std::size_t> live_allocs;   ///< per task, at the end
  std::vector<rtos::TaskId> victims;      ///< oracle deadlocked processes

  std::uint64_t recoveries = 0;
  std::uint64_t lock_acquires = 0, lock_releases = 0;
  std::uint64_t dl_requests = 0, dl_releases = 0;
  std::uint64_t allocs = 0, alloc_failures = 0, frees = 0;
  sim::Cycles sim_cycles = 0;  ///< diagnostic only

  /// Engine introspection (enabled only when the caller asked for it;
  /// diagnostic — checks never compare it).
  soc::EngineReport engine;

  /// Per-run invariant breaches (empty == this configuration held its
  /// behavioural contract on its own).
  std::vector<std::string> violations;
};

/// A completed differential run of one scenario over one pair.
struct DiffResult {
  std::string pair;
  std::vector<RunOutcome> outcomes;
  /// Cross-configuration breaches (per-run ones live in the outcomes).
  std::vector<std::string> cross_violations;

  [[nodiscard]] bool failed() const;
  /// Every violation, prefixed with the SUT name or "cross".
  [[nodiscard]] std::vector<std::string> all_violations() const;
};

/// Run one scenario on one configuration and evaluate its per-run
/// invariants. `fault` (optional) names a strategy fault to enable
/// (DeadlockStrategy::enable_fault); configurations that do not
/// recognize it run unfaulted. `engine_stats` additionally collects
/// engine introspection into RunOutcome::engine (pure observation —
/// simulated behaviour, and hence every check, is identical either way).
[[nodiscard]] RunOutcome run_scenario(const Scenario& s,
                                      const SystemUnderTest& sut,
                                      const std::string& fault = "",
                                      bool engine_stats = false);

/// Run one scenario across every configuration of `pair` and apply the
/// cross-configuration checks.
[[nodiscard]] DiffResult run_pair(const Scenario& s, const BackendPair& pair,
                                  const std::string& fault = "",
                                  bool engine_stats = false);

}  // namespace delta::fuzz

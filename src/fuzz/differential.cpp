#include "fuzz/differential.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "deadlock/hierarchical.h"
#include "rag/oracle.h"
#include "rag/reduction.h"
#include "soc/mpsoc.h"

namespace delta::fuzz {

const char* semantics_name(Semantics s) {
  switch (s) {
    case Semantics::kAvoid: return "avoid";
    case Semantics::kDetect: return "detect";
    case Semantics::kUnmanaged: return "unmanaged";
    case Semantics::kRecover: return "recover";
  }
  return "?";
}

const std::vector<BackendPair>& standard_pairs() {
  using soc::RtosPreset;
  static const std::vector<BackendPair> pairs = {
      {"pdda-ddu",
       "software deadlock detection (PDDA) vs the DDU",
       {{"PDDA", RtosPreset::kRtos1, Semantics::kDetect},
        {"DDU", RtosPreset::kRtos2, Semantics::kDetect}}},
      {"daa-dau",
       "software deadlock avoidance (DAA) vs the DAU",
       {{"DAA", RtosPreset::kRtos3, Semantics::kAvoid},
        {"DAU", RtosPreset::kRtos4, Semantics::kAvoid}}},
      {"locks",
       "software priority-inheritance locks vs the SoCLC",
       {{"SWLOCK", RtosPreset::kRtos5, Semantics::kUnmanaged},
        {"SOCLC", RtosPreset::kRtos6, Semantics::kUnmanaged}}},
      {"heap",
       "software malloc/free heap vs the SoCDMMU",
       {{"HEAP", RtosPreset::kRtos5, Semantics::kUnmanaged},
        {"SOCDMMU", RtosPreset::kRtos7, Semantics::kUnmanaged}}},
      {"presets",
       "all Table 3 configurations RTOS1-RTOS7",
       {{"RTOS1", RtosPreset::kRtos1, Semantics::kDetect},
        {"RTOS2", RtosPreset::kRtos2, Semantics::kDetect},
        {"RTOS3", RtosPreset::kRtos3, Semantics::kAvoid},
        {"RTOS4", RtosPreset::kRtos4, Semantics::kAvoid},
        {"RTOS5", RtosPreset::kRtos5, Semantics::kUnmanaged},
        {"RTOS6", RtosPreset::kRtos6, Semantics::kUnmanaged},
        {"RTOS7", RtosPreset::kRtos7, Semantics::kUnmanaged}}},
      // Sharded pairs: software reference vs the monolithic unit vs the
      // hierarchical (auto-clustered) unit. Opted out of the default
      // campaign to keep golden-pinned reports stable; name them
      // explicitly (--pairs ddu-sharded,dau-sharded) or via the
      // large-geometry CI step.
      {"ddu-sharded",
       "PDDA vs monolithic DDU vs sharded DDU (auto clusters)",
       {{"PDDA", RtosPreset::kRtos1, Semantics::kDetect},
        {"DDU", RtosPreset::kRtos2, Semantics::kDetect},
        {"SDDU", RtosPreset::kRtos2, Semantics::kDetect, 0}},
       false},
      {"dau-sharded",
       "DAA vs monolithic DAU vs sharded DAU (auto clusters)",
       {{"DAA", RtosPreset::kRtos3, Semantics::kAvoid},
        {"DAU", RtosPreset::kRtos4, Semantics::kAvoid},
        {"SDAU", RtosPreset::kRtos4, Semantics::kAvoid, 0}},
       false},
      // Protocol-zoo pairs (ROADMAP item 3): runtime Banker's avoidance
      // vs the DAA, and periodic wait-for-graph detection-and-recovery
      // vs the halting PDDA. Opted out of the default campaign to keep
      // golden-pinned reports stable; name them explicitly
      // (--pairs bankers-vs-daa,wfg-recovery) or via CI.
      {"bankers-vs-daa",
       "Banker's max-claims avoidance vs software DAA",
       {{"BANKERS", RtosPreset::kRtos3, Semantics::kAvoid, 1, "bankers"},
        {"DAA", RtosPreset::kRtos3, Semantics::kAvoid}},
       false},
      {"wfg-recovery",
       "periodic WFG detection + restart recovery vs halting PDDA",
       {{"WFG", RtosPreset::kRtos1, Semantics::kRecover, 1, "wfg"},
        {"PDDA", RtosPreset::kRtos1, Semantics::kDetect}},
       false},
  };
  return pairs;
}

const BackendPair& find_pair(const std::string& name) {
  for (const BackendPair& p : standard_pairs())
    if (p.name == name) return p;
  std::string known;
  for (const BackendPair& p : standard_pairs()) {
    if (!known.empty()) known += ", ";
    known += p.name;
  }
  throw std::invalid_argument("unknown backend pair '" + name +
                              "' (known: " + known + ")");
}

namespace {

/// Banker's max-claims derived from the scripts: claims[t] is the sorted
/// set of every resource task t ever requests. A task with no requests
/// keeps the empty (claim-everything) default, which is conservative but
/// still safe and live.
std::vector<std::vector<rtos::ResourceId>> scenario_claims(
    const Scenario& s) {
  std::vector<std::vector<rtos::ResourceId>> claims(s.tasks.size());
  for (std::size_t t = 0; t < s.tasks.size(); ++t) {
    std::vector<rtos::ResourceId>& c = claims[t];
    for (const Step& st : s.tasks[t].steps)
      if (st.kind == Step::Kind::kRequest)
        c.insert(c.end(), st.resources.begin(), st.resources.end());
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  return claims;
}

/// Kernel-vs-strategy agreement: every task's held set must match the
/// strategy matrix's grant column exactly (both directions).
void check_consistency(rtos::Kernel& k, const rag::StateMatrix& m,
                       std::vector<std::string>& violations) {
  for (rtos::TaskId t = 0; t < k.task_count(); ++t) {
    const rtos::Task& task = k.task(t);
    std::vector<rtos::ResourceId> kernel_held(task.held.begin(),
                                              task.held.end());
    std::vector<rag::ResId> matrix_held =
        t < m.processes() ? m.held_by(t) : std::vector<rag::ResId>{};
    std::sort(kernel_held.begin(), kernel_held.end());
    std::sort(matrix_held.begin(), matrix_held.end());
    if (kernel_held.size() != matrix_held.size() ||
        !std::equal(kernel_held.begin(), kernel_held.end(),
                    matrix_held.begin()))
      violations.push_back("task " + task.name +
                           ": kernel held set disagrees with strategy state");
  }
}

void check_invariants(const Scenario& s, const SystemUnderTest& sut,
                      RunOutcome& o) {
  auto bad = [&](const std::string& m) { o.violations.push_back(m); };

  if (o.hit_limit)
    bad("simulation hit the run limit without settling (livelock?)");
  if (o.alloc_failures > 0)
    bad("allocation failed (scenario sizes fit every backend's capacity)");
  if (o.all_finished) {
    // Scenarios are balanced: a completed system must be fully drained.
    if (!o.state_empty) bad("all tasks finished but strategy state not empty");
    for (std::size_t t = 0; t < o.live_allocs.size(); ++t)
      if (o.live_allocs[t] != 0)
        bad("task " + s.tasks[t].name + " finished with live allocations");
    if (o.allocs != o.frees)
      bad("all tasks finished but allocs != frees (" +
          std::to_string(o.allocs) + " vs " + std::to_string(o.frees) + ")");
  }

  switch (sut.semantics) {
    case Semantics::kAvoid:
      // Deadlock must be impossible: every task completes, always.
      if (!o.all_finished)
        bad("avoidance configuration did not complete every task");
      if (o.deadlock_detected)
        bad("avoidance configuration reported a deadlock");
      break;
    case Semantics::kDetect:
      if (o.all_finished) {
        if (o.deadlock_detected)
          bad("completed every task yet reported a deadlock");
      } else {
        // A stall must be a *detected* deadlock whose tracked state
        // really contains a cycle; anything else is a lost wakeup or a
        // silent detector.
        if (!o.deadlock_detected)
          bad("stalled without detecting a deadlock (lost wakeup or "
              "silent detector)");
        if (!o.oracle_cycle)
          bad("reported a deadlock but the oracle finds no cycle");
      }
      break;
    case Semantics::kUnmanaged:
      // May deadlock silently — but only for real: the final state must
      // contain a genuine cycle, otherwise a wakeup was lost.
      if (!o.all_finished && !o.oracle_cycle)
        bad("stalled with no deadlock cycle in the final state "
            "(lost wakeup)");
      break;
    case Semantics::kRecover:
      // Detection + recovery must ride through any deadlock: every task
      // completes (possibly after restarts), never a terminal halt, and
      // detections/recoveries imply each other.
      if (!o.all_finished)
        bad("recovery configuration did not complete every task");
      if (o.halted) bad("recovery configuration halted");
      if (o.recoveries > 0 && !o.deadlock_detected)
        bad("recovered without reporting a detection");
      if (o.deadlock_detected && o.recoveries == 0)
        bad("reported a detection without recovering");
      break;
  }
}

}  // namespace

RunOutcome run_scenario(const Scenario& s, const SystemUnderTest& sut,
                        const std::string& fault, bool engine_stats) {
  RunOutcome o;
  o.sut = sut.name;
  try {
    soc::DeltaConfig cfg = soc::rtos_preset(sut.preset);
    cfg.pe_count = s.pe_count;
    cfg.task_count = s.tasks.size();
    cfg.resource_count = s.resource_count;
    cfg.deadlock_clusters =
        sut.clusters == 0
            ? deadlock::ClusterMap::default_clusters(s.resource_count)
            : std::min(sut.clusters, s.resource_count);
    if (!sut.protocol.empty()) {
      if (sut.protocol == "bankers") {
        cfg.deadlock = soc::DeadlockComponent::kBankers;
        cfg.stop_on_deadlock = false;
        cfg.claims = scenario_claims(s);
      } else if (sut.protocol == "wfg") {
        cfg.deadlock = soc::DeadlockComponent::kWfgRecovery;
        cfg.stop_on_deadlock = false;
        cfg.detection_period = 5000;
        cfg.recovery = rtos::RecoveryPolicy::kAbortLowestCost;
      } else {
        throw std::invalid_argument("unknown protocol override '" +
                                    sut.protocol + "'");
      }
    }
    soc::MpsocConfig mc = cfg.to_mpsoc_config();
    // The preset carries the paper's four media devices; a scenario
    // wants anonymous single-unit resources with no device processing
    // time of their own (compute phases model the work instead).
    mc.resources.clear();
    mc.resources.reserve(s.resource_count);
    for (std::size_t r = 0; r < s.resource_count; ++r)
      mc.resources.push_back({"q" + std::to_string(r + 1), 0});
    mc.trace = false;
    // Nothing here reads the phase log, and large-geometry scenarios
    // run long enough (run_limit up to 2e9 cycles) for its unbounded
    // growth to exhaust memory.
    mc.record_transitions = false;
    mc.engine_stats = engine_stats;
    const auto mpsoc = std::make_unique<soc::Mpsoc>(mc);
    rtos::Kernel& k = mpsoc->kernel();
    if (!fault.empty()) o.fault_armed = k.strategy().enable_fault(fault);
    s.install(k);
    o.sim_cycles = mpsoc->run(s.run_limit);

    o.all_finished = k.all_finished();
    o.deadlock_detected = k.deadlock_detected();
    o.halted = k.halted();
    o.hit_limit = !mpsoc->simulator().idle() && !k.halted();
    o.recoveries = k.recoveries();
    o.finished.reserve(k.task_count());
    o.live_allocs.reserve(k.task_count());
    for (rtos::TaskId t = 0; t < k.task_count(); ++t) {
      o.finished.push_back(k.task(t).done());
      o.live_allocs.push_back(k.task(t).allocations.size());
    }
    const rag::StateMatrix* state = k.strategy().state();
    if (state != nullptr) {
      o.state_empty = state->empty();
      // An edge-free state has no cycle and no deadlocked process, and
      // most runs end in one: ask the oracle only when an edge is left.
      if (!o.state_empty) {
        o.oracle_cycle = rag::oracle_has_cycle(*state);
        for (rag::ProcId p : rag::deadlocked_processes(*state))
          o.victims.push_back(static_cast<rtos::TaskId>(p));
      }
      // Kernel-vs-matrix agreement is only meaningful on a settled
      // system: a deadlock halt freezes mid-flight grants (the matrix
      // already has the edge, the task's wake event never delivers).
      if (!o.halted && !o.hit_limit)
        check_consistency(k, *state, o.violations);
    } else {
      o.state_empty = true;
    }
    const obs::MetricsRegistry& metrics = mpsoc->observer().metrics;
    o.lock_acquires = metrics.counter_value("lock.acquires");
    o.lock_releases = metrics.counter_value("lock.releases");
    o.dl_requests = metrics.counter_value("deadlock.requests");
    o.dl_releases = metrics.counter_value("deadlock.releases");
    o.allocs = metrics.counter_value("mem.allocs");
    o.alloc_failures = metrics.counter_value("mem.alloc_failures");
    o.frees = metrics.counter_value("mem.frees");
    if (engine_stats) o.engine = mpsoc->engine_report();
    o.ok = true;
  } catch (const std::exception& e) {
    o.ok = false;
    o.error = e.what();
    o.violations.push_back(std::string("exception: ") + e.what());
    return o;
  }
  check_invariants(s, sut, o);
  return o;
}

bool DiffResult::failed() const {
  if (!cross_violations.empty()) return true;
  for (const RunOutcome& o : outcomes)
    if (!o.ok || !o.violations.empty()) return true;
  return false;
}

std::vector<std::string> DiffResult::all_violations() const {
  std::vector<std::string> all;
  for (const RunOutcome& o : outcomes)
    for (const std::string& v : o.violations) all.push_back(o.sut + ": " + v);
  for (const std::string& v : cross_violations)
    all.push_back("cross: " + v);
  return all;
}

DiffResult run_pair(const Scenario& s, const BackendPair& pair,
                    const std::string& fault, bool engine_stats) {
  DiffResult r;
  r.pair = pair.name;
  for (const SystemUnderTest& sut : pair.suts)
    r.outcomes.push_back(run_scenario(s, sut, fault, engine_stats));

  auto cross = [&](const std::string& m) { r.cross_violations.push_back(m); };
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    for (std::size_t j = i + 1; j < r.outcomes.size(); ++j) {
      const RunOutcome& a = r.outcomes[i];
      const RunOutcome& b = r.outcomes[j];
      if (!a.ok || !b.ok) continue;
      const std::string who = a.sut + " vs " + b.sut;
      // Completion divergence needs justification: the stalled side must
      // hold evidence of a deadlock. (Different interleavings may or may
      // not walk into the same race — but a *silent* stall opposite a
      // completing twin is always a bug.)
      for (const auto* lost : {&b, &a}) {
        const auto* won = lost == &b ? &a : &b;
        if (won->all_finished && !lost->all_finished &&
            !lost->deadlock_detected && !lost->oracle_cycle)
          cross(who + ": " + lost->sut +
                " lost a completion with no deadlock to justify it");
      }
      // When both sides complete cleanly, the scenario's scripted
      // service demand is fixed — counts must match exactly. Recoveries
      // and avoidance give-ups replay requests, so those runs are
      // exempt from count equality (never from completion checks).
      if (a.all_finished && b.all_finished && a.recoveries == 0 &&
          b.recoveries == 0) {
        auto eq = [&](std::uint64_t x, std::uint64_t y, const char* what) {
          if (x != y)
            cross(who + ": " + what + " diverge (" + std::to_string(x) +
                  " vs " + std::to_string(y) + ")");
        };
        eq(a.lock_acquires, b.lock_acquires, "lock acquires");
        eq(a.lock_releases, b.lock_releases, "lock releases");
        eq(a.allocs, b.allocs, "allocation counts");
        eq(a.frees, b.frees, "free counts");
        const bool avoidance =
            pair.suts[i].semantics == Semantics::kAvoid ||
            pair.suts[j].semantics == Semantics::kAvoid;
        if (!avoidance) {
          eq(a.dl_requests, b.dl_requests, "resource request counts");
          eq(a.dl_releases, b.dl_releases, "resource release counts");
        }
      }
    }
  }
  return r;
}

}  // namespace delta::fuzz

// Resource manager: pluggable deadlock strategies.
//
// Table 3's configurations differ in how resource requests/releases are
// mediated:
//   RTOS1 — PDDA in software: grants are unconditional (highest-priority
//           waiter on release); software PDDA runs on the invoking PE
//           after every allocation event and reports deadlock.
//   RTOS2 — DDU: same grant policy; matrix-cell updates are bus writes
//           and the DDU computes concurrently in ~O(min(m,n)) cycles.
//   RTOS3 — DAA in software: Algorithm 3 decides every event, with
//           software PDDA as the embedded detector; all on the PE.
//   RTOS4 — DAU: Algorithm 3 in hardware (commands via bus).
//   none  — plain priority-granting manager (baseline, can deadlock
//           silently).
// Beyond the paper: the DDU and DAU can be sharded into per-cluster
// units (same decisions, software residue on the PE), Banker's
// max-claims avoidance and periodic wait-for-graph detection run in
// software, and prior-work detectors stand in for PDDA as an ablation.
//
// Strategies mutate their tracked state synchronously and return the
// cycle costs; the kernel schedules the corresponding wake-ups/blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "deadlock/daa.h"
#include "deadlock/pdda.h"
#include "hw/dau.h"
#include "hw/ddu.h"
#include "obs/observer.h"
#include "rtos/flat_containers.h"
#include "rtos/service_costs.h"
#include "rtos/types.h"
#include "sim/stats.h"

namespace delta::rtos {

/// Which deadlock mechanism a system uses (Table 3 rows).
enum class DeadlockComponent : std::uint8_t {
  kNone,          ///< plain RTOS (RTOS5 baseline)
  kPddaSoftware,  ///< RTOS1
  kDdu,           ///< RTOS2
  kDaaSoftware,   ///< RTOS3
  kDau,           ///< RTOS4
  kBankers,       ///< Banker's max-claims avoidance in software
  kWfgRecovery,   ///< periodic wait-for-graph detection (+ recovery)
};

/// Outcome of a strategy-mediated event.
struct ResourceEvent {
  bool granted = false;        ///< request: granted to the requester now
  sim::Cycles pe_cycles = 0;   ///< PE busy time (API + sw algorithm + bus)
  sim::Cycles unit_cycles = 0; ///< hardware unit compute time (hw units)
  bool deadlock_detected = false;  ///< detection strategies only

  /// Grants handed to *other* tasks (release arbitration). Two inline
  /// entries cover every strategy but a Banker's drain that commits more,
  /// so building and moving an event stays off the heap.
  SmallVec<std::pair<TaskId, ResourceId>, 2> grants;

  /// Give-up demand (avoidance strategies). Empty, and so unallocated,
  /// except on give-up paths.
  TaskId asked = kNoTask;
  std::vector<ResourceId> ask_give_up;
  bool r_dl = false, g_dl = false, livelock = false;
};

/// Strategy interface. TaskIds double as the matrix process index.
class DeadlockStrategy {
 public:
  virtual ~DeadlockStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  virtual ResourceEvent request(TaskId who, ResourceId res,
                                sim::Cycles now) = 0;
  virtual ResourceEvent release(TaskId who, ResourceId res,
                                sim::Cycles now) = 0;

  /// Re-attempt granting a free resource with waiters (after a livelock
  /// victim complied). Default: nothing to do.
  virtual ResourceEvent retry(ResourceId res, sim::Cycles now);

  /// Periodic detection hook (wait-for-graph recovery backend). The
  /// kernel invokes it every KernelConfig::detection_period cycles; the
  /// returned event carries the scan's software cost in pe_cycles and
  /// its verdict in deadlock_detected. Default: nothing to scan.
  virtual ResourceEvent scan(sim::Cycles now);

  /// Max-claims declarations (Banker's avoidance). claims[t] lists every
  /// resource task t may ever request; an empty inner list means "claims
  /// everything". Default: ignored.
  virtual void set_claims(const std::vector<std::vector<ResourceId>>& claims) {
    (void)claims;
  }

  /// Withdraw a pending request (deadlock recovery / task abort).
  virtual void cancel_request(TaskId who, ResourceId res) = 0;

  /// Owner of a resource (kNoTask when free).
  [[nodiscard]] virtual TaskId owner(ResourceId res) const = 0;

  /// Tracked allocation state (for tests/diagnostics); may be null.
  [[nodiscard]] virtual const rag::StateMatrix* state() const {
    return nullptr;
  }

  /// Priorities feed grant arbitration (smaller = higher).
  virtual void set_priority(TaskId who, Priority prio) = 0;

  /// Per-invocation algorithm times (the "Algorithm Run Time" column of
  /// Tables 5/7/9). Detection strategies sample the detector; avoidance
  /// strategies sample the full per-event decision time.
  [[nodiscard]] const sim::SampleSet& algorithm_times() const {
    return algo_times_;
  }
  [[nodiscard]] std::size_t invocations() const {
    return algo_times_.count();
  }

  /// Attach observability. Hardware-backed strategies register their
  /// unit's counters into the registry; the default is a no-op. Pass
  /// nullptr to keep the strategy unobserved.
  virtual void attach_observer(obs::Observer* o) { (void)o; }

  /// TEST ONLY: enable a named fault in the strategy's implementation so
  /// the differential fuzzer can prove it detects broken units. Returns
  /// true when the strategy recognizes the fault name:
  ///   "dau-grant"   (DAU)  — the grant-safety probe always reports safe
  ///   "ddu-silent"  (DDU)  — detection results are suppressed
  ///   "bankers-unsafe-grant" (Banker's) — the safety probe is skipped on
  ///                 request, so anything free is granted
  ///   "wfg-miss-cycle" (WFG) — periodic scans never report a cycle
  /// The default recognizes nothing.
  virtual bool enable_fault(const std::string& name) {
    (void)name;
    return false;
  }

 protected:
  sim::SampleSet algo_times_;
};

/// The strategy for a deadlock component on an m x n (resources x
/// tasks) matrix. Banker's avoidance takes max-claims declarations via
/// set_claims(), and wait-for-graph detection reports cycles from
/// scan() instead of per event (pair it with a
/// KernelConfig::detection_period and a recovery policy). `bus` may be
/// null: the DDU/DAU then charge 3 cycles per bus word instead of
/// arbitrating, and the software strategies never touch it. Task `who`
/// commands the DAU as bus master `who % pe_count`; DDU cell writes all
/// go through master 0. `clusters > 1` shards the DDU/DAU into that
/// many per-cluster units plus an inter-cluster resolver
/// (hw/sharded_ddu.h, hw/sharded_dau.h): decisions stay identical to
/// the monolithic unit, and escalated cross-cluster residues run as
/// software on the invoking PE.
std::unique_ptr<DeadlockStrategy> make_strategy(
    DeadlockComponent kind, std::size_t resources, std::size_t tasks,
    const ServiceCosts& costs, bus::SharedBus* bus = nullptr,
    std::size_t pe_count = 1, std::size_t clusters = 1);

/// Prior-work software detector dropped into the RTOS in place of PDDA
/// (ablation: §3.3.2's complexity claims measured in-system).
enum class BaselineDetector : std::uint8_t { kHolt, kShoshani, kLeibfried };

std::unique_ptr<DeadlockStrategy> make_baseline_detection_strategy(
    BaselineDetector kind, std::size_t resources, std::size_t tasks,
    const ServiceCosts& costs);

}  // namespace delta::rtos

// The delta RTOS kernel.
//
// A shared-memory multiprocessor RTOS in the mold of Atalanta v0.3
// (paper §2.1): one kernel instance shared by all PEs, tasks pinned to
// PEs, preemptive priority scheduling with priority inheritance (or
// hardware IPCP via the SoCLC), optional round-robin time slicing,
// semaphores/mailboxes/queues/event-flags, task management, dynamic
// memory, and a resource manager with a pluggable deadlock strategy.
//
// The kernel interprets task Programs against the discrete-event
// simulator: every service charges calibrated cycle costs
// (rtos/service_costs.h) plus whatever the strategy/backends report, so
// the seven RTOS/MPSoC configurations of Table 3 are just different
// constructor arguments.
//
// Its state is one control block per task (rtos/task.h) and one record
// per PE: what runs there, its ready count and its open service window.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "obs/critpath.h"
#include "obs/observer.h"
#include "rtos/devices.h"
#include "rtos/engine_counters.h"
#include "rtos/ipc.h"
#include "rtos/locks.h"
#include "rtos/memory_manager.h"
#include "rtos/program.h"
#include "rtos/resource_manager.h"
#include "rtos/service_costs.h"
#include "rtos/task.h"
#include "rtos/types.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace delta::rtos {

/// What to do when a detection strategy reports deadlock.
/// The paper (§3.3.1) notes detection "usually requires a recovery once a
/// deadlock is detected"; the recovery policies implement that step.
enum class RecoveryPolicy : std::uint8_t {
  kNone,                 ///< honor stop_on_deadlock (measurement mode)
  kAbortLowestPriority,  ///< restart the lowest-priority deadlocked task
  kAbortYoungest,        ///< restart the most recently released one
  kAbortLowestCost,      ///< restart the one with the least work to redo
                         ///< (lowest pc; ties: fewest held resources)
};

/// Kernel construction parameters.
struct KernelConfig {
  std::size_t pe_count = 4;
  std::size_t resource_count = 4;
  std::size_t max_tasks = 8;      ///< strategy matrix columns
  ServiceCosts costs;
  bool stop_on_deadlock = true;   ///< freeze the system when detection fires
  RecoveryPolicy recovery = RecoveryPolicy::kNone;
  sim::Cycles time_slice = 0;     ///< 0 = pure priority; >0 = RR among equals
  /// Contended short locks busy-wait on the PE (Atalanta's short-CS spin
  /// protocol) instead of suspending. Software spinners hammer the bus;
  /// SoCLC spinners do not — §2.3.1's traffic-reduction claim.
  bool spin_short_locks = false;
  /// Periodic deadlock scan (wait-for-graph backend): every
  /// `detection_period` cycles the kernel invokes the strategy's scan()
  /// inside the resource-manager critical section. 0 = no periodic scan.
  sim::Cycles detection_period = 0;
  /// Max-claims declarations forwarded to the strategy (Banker's):
  /// claims[t] lists every resource task t may ever request; an empty
  /// inner list claims everything. Empty table = no declarations.
  std::vector<std::vector<ResourceId>> claims;
  std::vector<std::string> resource_names;  ///< default q1..qm
  bool trace = true;
  /// Keep the per-transition phase log (transitions()). Four readers
  /// fold it through obs::fold_phases(): the utilization report, the
  /// Gantt timeline (rtos/timeline.h), the critical-path profiler and
  /// the windowed sampler's per-PE busy tracks. It grows without bound
  /// — one entry per task state change — so callers that never read it
  /// turn it off: the differential fuzzer, whose runs last billions of
  /// cycles, and exp::execute_run unless the run is profiled, since
  /// growing it costs a short sweep run about seven allocations.
  bool record_transitions = true;
};

/// The kernel (definitions in kernel.cpp).
class Kernel {
 public:
  /// `observer` (typically the Mpsoc's) homes every counter and
  /// histogram of the kernel and of the strategy and lock/memory
  /// backends; it must outlive the kernel. Null gives the kernel a
  /// private observer, so metrics always have a home.
  Kernel(sim::Simulator& sim, bus::SharedBus& bus, KernelConfig cfg,
         std::unique_ptr<DeadlockStrategy> strategy,
         std::unique_ptr<LockBackend> locks,
         std::unique_ptr<MemoryBackend> memory,
         obs::Observer* observer = nullptr);

  // ------------------------------------------------------------ tasks --
  TaskId create_task(std::string name, PeId pe, Priority priority,
                     Program program, sim::Cycles release_time = 0);

  /// Periodic task: the program re-runs every `period` cycles for
  /// `activations` rounds (the robot app's sensor/control loops). Each
  /// activation's response time is checked against the task's deadline.
  /// An activation released while the previous one is still executing is
  /// an overrun: it is counted as a deadline miss and skipped.
  TaskId create_periodic_task(std::string name, PeId pe, Priority priority,
                              Program program, sim::Cycles period,
                              std::uint32_t activations,
                              sim::Cycles first_release = 0);
  /// TaskIds are dense kernel-assigned indices; the unchecked index is
  /// deliberate — task() sits on every hot path (asserted in debug).
  [[nodiscard]] Task& task(TaskId id) {
    assert(id < tasks_.size());
    return tasks_[id];
  }
  [[nodiscard]] const Task& task(TaskId id) const {
    assert(id < tasks_.size());
    return tasks_[id];
  }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }

  /// Task management API (§2.1): suspension and resumption.
  void suspend(TaskId id);
  void resume(TaskId id);

  /// Change a task's base priority at run time (Atalanta's priority
  /// manipulation service). Takes effect immediately: the effective
  /// priority is re-derived and the task's PE re-arbitrated.
  void change_priority(TaskId id, Priority priority);

  /// Attach a worst-case-response-time requirement (Fig. 19's WCRTs).
  void set_deadline(TaskId id, sim::Cycles relative_deadline) {
    task(id).deadline = relative_deadline;
  }
  /// Finished tasks whose turnaround exceeded their deadline.
  [[nodiscard]] std::size_t deadline_misses() const;

  // -------------------------------------------------------------- IPC --
  SemId create_semaphore(std::int64_t initial);
  MailboxId create_mailbox();
  QueueId create_queue(std::size_t capacity);
  EventGroupId create_event_group();

  // ------------------------------------------------------------- run --
  /// Schedule all task arrivals. Call once, then run the simulator.
  void start();

  [[nodiscard]] bool all_finished() const;
  [[nodiscard]] sim::Cycles last_finish_time() const;

  // ------------------------------------------------------- diagnostics --
  [[nodiscard]] bool deadlock_detected() const { return deadlock_detected_; }
  [[nodiscard]] sim::Cycles deadlock_time() const { return deadlock_time_; }
  [[nodiscard]] bool halted() const { return halted_; }

  /// Deadlock recoveries performed (RecoveryPolicy != kNone).
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// Times each task was aborted/restarted by recovery.
  [[nodiscard]] std::uint64_t restarts(TaskId id) const {
    return task(id).restarts;
  }

  [[nodiscard]] DeadlockStrategy& strategy() { return *strategy_; }
  [[nodiscard]] LockBackend& locks() { return *locks_; }
  [[nodiscard]] MemoryBackend& memory() { return *memory_; }
  [[nodiscard]] DeviceManager& devices() { return devices_; }
  [[nodiscard]] const KernelConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Lock metrics for Table 10: latency = uncontended acquire service
  /// time; delay = request-to-grant time for contended acquires. These
  /// live in the observer's metrics registry ("lock.latency" /
  /// "lock.delay"); the accessors are kept for the exp/bench layers.
  [[nodiscard]] const sim::SampleSet& lock_latency() const {
    return *lock_latency_;
  }
  [[nodiscard]] const sim::SampleSet& lock_delay() const {
    return *lock_delay_;
  }

  /// Allocator service latencies: the backend-reported PE cycles of every
  /// alloc/alloc_shared/free call (Tables 11/12 raw samples); registry
  /// histogram "mem.alloc_latency".
  [[nodiscard]] const sim::SampleSet& alloc_latency() const {
    return *alloc_latency_;
  }

  /// The observer given at construction, or the private one.
  [[nodiscard]] obs::Observer& observer() { return *obs_; }

  /// Start collecting host-side engine counters on the service path
  /// (rtos/engine_counters.h). Idempotent.
  void enable_engine_counters();

  /// Snapshot of the engine counters with any open give-up episode
  /// folded in. Zeroed when collection is off.
  [[nodiscard]] EngineCounters engine_counters_snapshot() const;

  [[nodiscard]] TaskId running_on(PeId pe) const {
    return pes_.at(pe).running;
  }

  /// Task phase log, one entry per state change (not-started, suspended
  /// and finished all map to TaskPhase::kAbsent). Empty unless
  /// KernelConfig::record_transitions.
  [[nodiscard]] const std::vector<obs::PhaseChange>& transitions() const {
    return transitions_;
  }

  /// Resource-name helper for traces ("IDCT" etc.).
  [[nodiscard]] const std::string& resource_name(ResourceId r) const {
    return cfg_.resource_names.at(r);
  }

 private:
  sim::Simulator& sim_;
  bus::SharedBus& bus_;
  KernelConfig cfg_;
  std::unique_ptr<DeadlockStrategy> strategy_;
  std::unique_ptr<LockBackend> locks_;
  std::unique_ptr<MemoryBackend> memory_;
  DeviceManager devices_;

  /// Held by value and reserved to max_tasks once, at construction.
  /// create_task refuses a task past max_tasks, so the vector never
  /// reallocates: create_task allocates nothing of its own, and a Task&
  /// stays valid for the kernel's life, across later create_task calls
  /// too.
  std::vector<Task> tasks_;

  /// Strategy outcomes of one request/release service window, in op
  /// order.
  using ResourceEvents = std::vector<std::pair<ResourceId, ResourceEvent>>;

  /// One PE's scheduler state. Sized to pe_count at construction.
  struct Pe {
    TaskId running = kNoTask;
    /// In a non-preemptible section: a service window or a short-lock
    /// spin. A PE runs one service window at a time.
    bool in_service = false;
    /// Tasks pinned here in TaskState::kReady, kept by set_state(). Lets
    /// reschedule()/dispatch()/arm_time_slice() skip their O(tasks) scans
    /// on the (dominant) idle-PE case and bound the scan otherwise.
    std::uint32_t ready = 0;
    /// The open op_request/op_release window's events; its completion
    /// applies and clears them. The buffer keeps its capacity, so only a
    /// PE's first such window allocates.
    ResourceEvents events;
  };
  std::vector<Pe> pes_;
  sim::Cycles resmgr_lock_until_ = 0;  ///< kernel lock for resource services

  std::vector<Semaphore> semaphores_;
  std::vector<Mailbox> mailboxes_;
  std::vector<MessageQueue> queues_;
  std::vector<EventGroup> event_groups_;

  // Observability. All pointers below index into obs_->metrics, cached
  // once at construction; own_obs_ is set only when no observer is given.
  std::unique_ptr<obs::Observer> own_obs_;
  obs::Observer* obs_ = nullptr;
  sim::SampleSet* lock_latency_ = nullptr;
  sim::SampleSet* lock_delay_ = nullptr;
  sim::SampleSet* alloc_latency_ = nullptr;
  obs::Counter* ctr_ctx_switches_ = nullptr;
  obs::Counter* ctr_preemptions_ = nullptr;
  obs::Counter* ctr_lock_acquires_ = nullptr;
  obs::Counter* ctr_lock_releases_ = nullptr;
  obs::Counter* ctr_lock_contended_ = nullptr;
  obs::Counter* ctr_lock_spins_ = nullptr;
  obs::Counter* ctr_dl_requests_ = nullptr;
  obs::Counter* ctr_dl_releases_ = nullptr;
  obs::Counter* ctr_allocs_ = nullptr;
  obs::Counter* ctr_alloc_failures_ = nullptr;
  obs::Counter* ctr_frees_ = nullptr;

  bool deadlock_detected_ = false;
  sim::Cycles deadlock_time_ = 0;
  bool halted_ = false;
  std::uint64_t recoveries_ = 0;
  std::vector<obs::PhaseChange> transitions_;

  /// Host-side engine counters; null = collection off (the default).
  std::unique_ptr<EngineCounters> engine_;
  /// Open give-up episode (maximal same-victim run); folded into the
  /// histogram on victim change and by engine_counters_snapshot().
  TaskId giveup_episode_victim_ = kNoTask;
  std::uint64_t giveup_episode_len_ = 0;

  FlatSet<ResourceId> starved_;  ///< livelock-idled resources to retry
  std::uint64_t sched_seq_ = 0;  ///< round-robin rotation counter

  // ------------------------------------------------------- internals --
  /// Lazy trace: `make_text` (returning something convertible to
  /// std::string) only runs when tracing is on, so hot paths never
  /// format strings for a disabled trace.
  template <class F>
  void trace(const char* channel, F&& make_text) {
    if (cfg_.trace) sim_.trace().record(sim_.now(), channel, make_text());
  }
  /// Set a task's state and append its phase to the transition log.
  void set_state(TaskId id, TaskState to);
  void reschedule(PeId pe);
  void dispatch(PeId pe, TaskId id);
  void step_task(TaskId id);
  void finish_task(TaskId id);
  /// Block `id`; `object` identifies what it waits on within the
  /// WaitKind's namespace (lock id, semaphore id, ...; kResources reads
  /// the task's waiting_for set instead) for the wait-for trace edge.
  void block_task(TaskId id, WaitKind why, std::uint64_t object = 0);
  /// Emit kWaitFor trace edges (waiter -> holder where known) at the
  /// instant a task blocks. No-op when tracing is disabled.
  void record_wait_for(const Task& t, WaitKind why, std::uint64_t object);
  void wake_task(TaskId id);

  /// Begin a non-preemptible kernel service on `pe` lasting `cycles`;
  /// `done` runs at completion (service flag cleared first). Templated
  /// on the continuation so the closure relocates straight into the
  /// event queue's slab — no std::function boxing on the hot path.
  /// Defined in kernel.cpp, where all its callers live.
  template <class F>
  void service(PeId pe, sim::Cycles cycles, F done);

  // Op handlers.
  void op_compute(Task& t, const op::Compute& c);
  void op_request(Task& t, const op::Request& r);
  void op_release(Task& t, const op::Release& r);
  void op_use_device(Task& t, const op::UseDevice& u);
  void op_lock(Task& t, const op::Lock& l);
  void op_unlock(Task& t, const op::Unlock& u);
  void op_alloc(Task& t, const op::Alloc& a);
  void op_alloc_shared(Task& t, const op::AllocShared& a);
  void op_free(Task& t, const op::Free& f);
  void op_sem_wait(Task& t, const op::SemWait& s);
  void op_sem_post(Task& t, const op::SemPost& s);
  void op_send(Task& t, const op::Send& s);
  void op_recv(Task& t, const op::Recv& r);
  void op_queue_send(Task& t, const op::QueueSend& s);
  void op_queue_recv(Task& t, const op::QueueRecv& r);
  void op_event_set(Task& t, const op::EventSet& e);
  void op_event_wait(Task& t, const op::EventWait& e);

  /// Apply a strategy event's side effects (grants, asks, detection).
  void apply_resource_event(const ResourceEvent& ev, ResourceId res,
                            sim::Cycles at);
  void grant_resource(TaskId to, ResourceId res);
  void maybe_wake_resource_waiter(TaskId id);
  void schedule_give_up(TaskId victim, std::vector<ResourceId> resources);
  /// Engine-counter bookkeeping for one give-up request (episode
  /// detection). Only called with engine_ non-null.
  void note_give_up(TaskId victim, std::size_t resources);
  void note_detection(const ResourceEvent& ev, sim::Cycles at);
  /// Arm the next periodic wait-for-graph scan (detection_period > 0).
  void schedule_scan();
  void recover_from_deadlock();
  TaskId pick_recovery_victim() const;

  /// Busy-wait loop for contended short locks.
  void spin_on_lock(TaskId id, LockId lk);

  /// Release a lock on behalf of an aborted task (recovery path).
  void force_unlock(TaskId id, LockId lk);
  /// Give a released lock to the waiter the backend picked (if any):
  /// ownership, ceiling, delay sample, and wake-up or pending grant.
  void hand_off_lock(LockId lk, const LockRelease& res);

  /// Priority inheritance (software lock backend).
  void boost_owner_chain(TaskId owner, Priority prio);
  void recompute_inherited_priority(TaskId id);

  void arm_time_slice(PeId pe);
};

}  // namespace delta::rtos

// Task control block.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rtos/flat_containers.h"
#include "rtos/program.h"
#include "rtos/types.h"
#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace delta::rtos {

/// One task (the kernel owns these; applications configure them through
/// Kernel::create_task and the Program builder). It holds all of the
/// kernel's state for the task (scheduling, resources, locks, IPC and
/// recovery), so the kernel keeps no other table indexed by TaskId.
struct Task {
  TaskId id = kNoTask;
  std::string name;
  PeId pe = 0;                    ///< tasks are pinned to a PE (as in §5.3)
  Priority base_priority = 0;     ///< smaller = higher
  Priority priority = 0;          ///< effective (inheritance/ceiling)
  TaskState state = TaskState::kNotStarted;
  WaitKind wait_kind = WaitKind::kNone;

  /// The task's ops, set once by Kernel::create_task. The kernel keeps
  /// pointers into them (a service continuation's slot name, the keys
  /// of `allocations`) for its whole life, so only it may write them.
  [[nodiscard]] const Program& program() const { return program_; }
  std::size_t pc = 0;             ///< next op index
  sim::Cycles compute_left = 0;   ///< remaining cycles of a preempted Compute

  /// Dispatch generation: bumped whenever the task is (re)dispatched or
  /// recovered, so in-flight completion events can detect they are stale.
  std::uint64_t gen = 0;

  /// In-flight Compute completion event (valid iff compute_armed).
  sim::EventId compute_event = 0;
  bool compute_armed = false;
  sim::Cycles compute_done_at = 0;  ///< absolute finish time while armed

  sim::Cycles release_time = 0;   ///< arrival (start) time
  sim::Cycles started_at = sim::kNeverCycles;
  sim::Cycles finished_at = sim::kNeverCycles;

  /// Relative response-time requirement (WCRT, §5.5 / Fig. 19); 0 = none.
  /// Checked against turnaround when the task finishes (for periodic
  /// tasks: against each activation's response time).
  sim::Cycles deadline = 0;

  /// Periodic activation (0 = one-shot). A periodic task re-runs its
  /// program every `period` cycles until `activations_left` reaches zero.
  sim::Cycles period = 0;
  std::uint32_t activations_left = 0;
  std::uint32_t activations_done = 0;
  std::uint32_t deadline_miss_count = 0;
  sim::Cycles worst_response = 0;  ///< max observed activation response

  /// Deadlock-managed resources.
  FlatSet<ResourceId> held;
  FlatSet<ResourceId> waiting_for;

  /// Locks (op::Lock/op::Unlock) held, and the one this task is blocked
  /// on (kNoLock when none; priority inheritance follows these links).
  FlatSet<LockId> held_locks;
  LockId waiting_lock = kNoLock;
  /// A lock handed to this task while its acquire service was still in
  /// flight; the acquire completion consumes it as a grant.
  LockId pending_lock_grant = kNoLock;
  /// When the last op::Lock was issued, for the lock-delay sample of a
  /// hand-off (kNeverCycles before the first).
  sim::Cycles lock_requested_at = sim::kNeverCycles;
  /// IPCP ceilings entered (hardware lock backend): each lock with the
  /// effective priority to restore when it is released.
  std::vector<std::pair<LockId, Priority>> ceiling_stack;

  /// Payload of a send blocked on a full message queue; the receive that
  /// admits this task into the freed slot enqueues it.
  std::uint64_t queue_send_payload = 0;

  /// Named allocation slots (op::Alloc/op::Free), keyed by views of the
  /// slot strings of this task's op::Alloc/op::AllocShared ops. The
  /// task's Program owns those strings for the kernel's life, so the
  /// first four slots cost no allocation.
  FlatMap<std::string_view, std::uint64_t> allocations;

  /// Last message received from a mailbox/queue (op::Recv/op::QueueRecv).
  std::uint64_t last_message = 0;

  /// Round-robin ordering key among equal priorities (rotated on slice
  /// expiry; smaller runs first).
  std::uint64_t order_key = 0;

  /// Statistics.
  std::uint64_t preemptions = 0;
  std::uint64_t restarts = 0;  ///< aborts and restarts by deadlock recovery

  [[nodiscard]] bool runnable() const {
    return state == TaskState::kReady || state == TaskState::kRunning;
  }
  [[nodiscard]] bool done() const { return state == TaskState::kFinished; }
  [[nodiscard]] sim::Cycles turnaround() const {
    return finished_at == sim::kNeverCycles ? 0 : finished_at - release_time;
  }
  [[nodiscard]] bool missed_deadline() const {
    return deadline != 0 && finished_at != sim::kNeverCycles &&
           turnaround() > deadline;
  }

 private:
  friend class Kernel;
  Program program_;
};

}  // namespace delta::rtos

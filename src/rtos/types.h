// Core identifier and state types of the delta RTOS kernel.
#pragma once

#include <cstddef>
#include <cstdint>

namespace delta::rtos {

/// Processing element index (0-based; the paper's PE1..PE4).
using PeId = std::size_t;

/// Task index in the kernel's task table.
using TaskId = std::size_t;

/// System resource index (0-based; the paper's q1..q4 are 0..3).
using ResourceId = std::size_t;

/// Lock index (forwarded to the lock backend).
using LockId = std::size_t;

/// Semaphore/mailbox/queue/event-group indices.
using SemId = std::size_t;
using MailboxId = std::size_t;
using QueueId = std::size_t;
using EventGroupId = std::size_t;

inline constexpr TaskId kNoTask = static_cast<TaskId>(-1);
inline constexpr LockId kNoLock = static_cast<LockId>(-1);

/// Priorities: smaller value = higher priority (paper: p1 highest).
using Priority = int;

/// Task life-cycle states.
enum class TaskState : std::uint8_t {
  kNotStarted,  ///< waiting for its start time
  kReady,       ///< runnable, waiting for its PE
  kRunning,     ///< executing on its PE
  kBlocked,     ///< waiting (resource, lock, IPC)
  kSuspended,   ///< explicitly suspended via the task-management API
  kFinished,    ///< program completed
};

/// What a blocked task is waiting for (diagnostics and wake-up routing).
enum class WaitKind : std::uint8_t {
  kNone,
  kResources,  ///< one or more system resources (deadlock-managed)
  kDevice,     ///< a device job's completion interrupt
  kLock,
  kSemaphore,
  kMailbox,
  kQueue,
  kEvents,
};

}  // namespace delta::rtos

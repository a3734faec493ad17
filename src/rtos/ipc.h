// Kernel IPC object state (semaphores, mailboxes, message queues, event
// flag groups — the Atalanta primitive set, §2.1). The kernel manages
// blocking/wake-up; these structs hold the pure object state with
// priority-ordered wait lists.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "rtos/types.h"

namespace delta::rtos {

/// Priority-ordered wait list (FIFO among equal priorities). Semaphores,
/// mailboxes, message queues and the software lock backend keep their
/// waiters in one.
class WaitList {
 public:
  void add(TaskId t, Priority p) { entries_.push_back({t, p, seq_++}); }
  void remove(TaskId t);
  /// Pop the highest-priority waiter; kNoTask when empty.
  TaskId pop();
  /// The highest waiting priority; std::nullopt when empty.
  [[nodiscard]] std::optional<Priority> top_priority() const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    TaskId task;
    Priority prio;
    std::uint64_t seq;
  };
  std::vector<Entry> entries_;
  std::uint64_t seq_ = 0;
};

/// Counting semaphore.
struct Semaphore {
  std::int64_t count = 0;
  WaitList waiters;
};

/// Mailbox: unbounded FIFO of 64-bit messages; recv blocks when empty.
struct Mailbox {
  std::deque<std::uint64_t> messages;
  WaitList receivers;
};

/// Bounded message queue: send blocks when full, recv blocks when empty.
struct MessageQueue {
  std::size_t capacity = 8;
  std::deque<std::uint64_t> messages;
  WaitList senders;  ///< payloads parked in Task::queue_send_payload
  WaitList receivers;
};

/// Event-flag group: wait-all semantics.
struct EventGroup {
  std::uint32_t flags = 0;
  struct Waiter {
    TaskId task;
    std::uint32_t mask;
  };
  std::vector<Waiter> waiters;
};

}  // namespace delta::rtos

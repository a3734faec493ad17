// Task programs.
//
// Application tasks are small interpreted programs over the kernel's
// service vocabulary: compute for N cycles, request/release resources,
// take/give locks, allocate/free memory, IPC, plus a Call escape hatch
// for dynamic behaviour (a Call may inspect the kernel and its task).
// This keeps the simulation deterministic and lets the paper's event
// tables (Tables 4/6/8) be written down literally in the workload
// definitions. A program is fixed once Kernel::create_task takes it:
// the kernel keeps pointers into its ops (a service continuation's
// slot name, the task's allocation table keys) for the kernel's life,
// and Task::program() hands it out read-only.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <variant>
#include <vector>

#include "rtos/flat_containers.h"
#include "rtos/types.h"
#include "sim/sim_time.h"

namespace delta::rtos {

class Kernel;
struct Task;

namespace op {

/// Busy-loop on the PE for `cycles` (preemptible).
struct Compute {
  sim::Cycles cycles;
};

/// The resources one Request/Release op names. Two inline entries cover
/// every program in the repo: the paper's applications and the fuzz
/// generator ask for one or two resources per op, so setting a task up
/// makes no allocation per op. A longer list spills to the heap.
using ResourceList = SmallVec<ResourceId, 2>;

/// Request every resource in `resources`; the task blocks until all are
/// granted (paper semantics: "p3 requests IDCT and WI; only WI is
/// granted" leaves p3 blocked on the rest).
struct Request {
  ResourceList resources;
};

/// Release each resource in `resources` (must be held).
struct Release {
  ResourceList resources;
};

/// Run a job of `cycles` on the device behind a *held* resource. The
/// device processes autonomously — the PE is freed for other tasks — and
/// the completion interrupt resumes this task (§5.1's interrupt
/// generators).
struct UseDevice {
  ResourceId resource;
  sim::Cycles cycles;
};

/// Acquire/release a lock via the configured lock backend.
struct Lock {
  LockId lock;
};
struct Unlock {
  LockId lock;
};

/// Dynamic memory: allocate `bytes` into named `slot`; free a slot.
struct Alloc {
  std::uint64_t bytes;
  std::string slot;
};

/// Shared allocation (SoCDMMU G_alloc_rw/G_alloc_ro): create-or-attach
/// the named region; `writable` selects rw vs ro.
struct AllocShared {
  std::size_t region;
  std::uint64_t bytes;
  bool writable;
  std::string slot;
};
struct Free {
  std::string slot;
};

/// Counting-semaphore operations.
struct SemWait {
  SemId sem;
};
struct SemPost {
  SemId sem;
};

/// Mailbox send (non-blocking post) / receive (blocks when empty).
struct Send {
  MailboxId box;
  std::uint64_t message;
};
struct Recv {
  MailboxId box;
};

/// Message-queue send (blocks when full) / receive (blocks when empty).
struct QueueSend {
  QueueId queue;
  std::uint64_t message;
};
struct QueueRecv {
  QueueId queue;
};

/// Event-flag group: set flags / wait for all of `mask`.
struct EventSet {
  EventGroupId group;
  std::uint32_t mask;
};
struct EventWait {
  EventGroupId group;
  std::uint32_t mask;
};

/// Arbitrary hook running in kernel context (zero simulated time). May
/// inspect the kernel and the running task, whose program it can read
/// but not change.
struct Call {
  std::function<void(Kernel&, Task&)> fn;
};

using Op = std::variant<Compute, Request, Release, UseDevice, Lock, Unlock,
                        Alloc, AllocShared, Free, SemWait, SemPost, Send,
                        Recv, QueueSend, QueueRecv, EventSet, EventWait,
                        Call>;

}  // namespace op

/// Fluent builder for task programs.
class Program {
 public:
  Program& compute(sim::Cycles c) { return push(op::Compute{c}); }
  Program& request(std::initializer_list<ResourceId> rs) {
    return push(op::Request{{rs.begin(), rs.end()}});
  }
  Program& request(const std::vector<ResourceId>& rs) {
    return push(op::Request{{rs.begin(), rs.end()}});
  }
  Program& release(std::initializer_list<ResourceId> rs) {
    return push(op::Release{{rs.begin(), rs.end()}});
  }
  Program& release(const std::vector<ResourceId>& rs) {
    return push(op::Release{{rs.begin(), rs.end()}});
  }
  Program& use_device(ResourceId r, sim::Cycles c) {
    return push(op::UseDevice{r, c});
  }
  Program& lock(LockId l) { return push(op::Lock{l}); }
  Program& unlock(LockId l) { return push(op::Unlock{l}); }
  Program& alloc(std::uint64_t bytes, std::string slot) {
    return push(op::Alloc{bytes, std::move(slot)});
  }
  Program& alloc_shared(std::size_t region, std::uint64_t bytes,
                        bool writable, std::string slot) {
    return push(op::AllocShared{region, bytes, writable, std::move(slot)});
  }
  Program& free(std::string slot) { return push(op::Free{std::move(slot)}); }
  Program& sem_wait(SemId s) { return push(op::SemWait{s}); }
  Program& sem_post(SemId s) { return push(op::SemPost{s}); }
  Program& send(MailboxId b, std::uint64_t msg) {
    return push(op::Send{b, msg});
  }
  Program& recv(MailboxId b) { return push(op::Recv{b}); }
  Program& queue_send(QueueId q, std::uint64_t msg) {
    return push(op::QueueSend{q, msg});
  }
  Program& queue_recv(QueueId q) { return push(op::QueueRecv{q}); }
  Program& event_set(EventGroupId g, std::uint32_t mask) {
    return push(op::EventSet{g, mask});
  }
  Program& event_wait(EventGroupId g, std::uint32_t mask) {
    return push(op::EventWait{g, mask});
  }
  Program& call(std::function<void(Kernel&, Task&)> fn) {
    return push(op::Call{std::move(fn)});
  }

  [[nodiscard]] const std::vector<op::Op>& ops() const { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  /// Room for `n` ops, so a builder that knows its length grows the op
  /// vector once.
  void reserve(std::size_t n) { ops_.reserve(n); }

 private:
  std::vector<op::Op> ops_;
  Program& push(op::Op o) {
    ops_.push_back(std::move(o));
    return *this;
  }
};

}  // namespace delta::rtos

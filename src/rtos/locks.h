// Lock subsystem backends.
//
// RTOS5 (software) vs RTOS6 (SoCLC) of the paper differ only here: the
// software backend implements lock words + waiter lists in shared memory
// with priority-inheritance bookkeeping in the kernel; the hardware
// backend drives the SoC Lock Cache, whose grant response carries the
// IPCP ceiling. The kernel is backend-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hw/soclc.h"
#include "obs/observer.h"
#include "rtos/ipc.h"
#include "rtos/service_costs.h"
#include "rtos/types.h"
#include "sim/sim_time.h"

namespace delta::rtos {

/// Result of an acquire attempt.
struct LockAcquire {
  bool granted = false;
  sim::Cycles cycles = 0;          ///< PE time spent in the service
  std::optional<Priority> ceiling; ///< IPCP ceiling to apply (hw backend)
};

/// Result of a release.
struct LockRelease {
  TaskId next = kNoTask;           ///< task the lock was handed to
  sim::Cycles cycles = 0;
  std::optional<Priority> ceiling; ///< ceiling for the new owner
};

/// Backend interface.
class LockBackend {
 public:
  virtual ~LockBackend() = default;

  virtual LockAcquire acquire(LockId lock, TaskId who, Priority prio) = 0;
  virtual LockRelease release(LockId lock, TaskId who) = 0;
  virtual void cancel_wait(LockId lock, TaskId who) = 0;
  [[nodiscard]] virtual TaskId owner(LockId lock) const = 0;
  /// Highest waiter priority (for priority-inheritance recomputation);
  /// std::nullopt when no waiters or when the backend applies IPCP.
  [[nodiscard]] virtual std::optional<Priority> top_waiter(
      LockId lock) const = 0;
  [[nodiscard]] virtual std::size_t lock_count() const = 0;
  /// True when the backend provides hardware IPCP (kernel then applies
  /// the ceiling instead of running priority inheritance).
  [[nodiscard]] virtual bool provides_ceiling() const = 0;

  /// True when `lock` is a short (spin) lock: contended acquirers busy-
  /// wait on the PE instead of suspending (Atalanta's short-CS locks /
  /// the SoCLC's "small locks").
  [[nodiscard]] virtual bool is_short(LockId lock) const = 0;

  /// Bus words one spin poll costs. Software spin locks poll the lock
  /// word in shared L2 (real bus traffic); the SoCLC is polled over its
  /// private port logic, so its waiters produce no memory-bus traffic —
  /// the §2.3.1 "reduces on-chip memory traffic" claim.
  [[nodiscard]] virtual std::size_t spin_poll_bus_words() const = 0;

  /// Attach observability (default: no-op). Backends register their
  /// counters into the registry; nullptr detaches nothing.
  virtual void attach_observer(obs::Observer* o) { (void)o; }
};

/// Software locks with priority-inheritance support (RTOS5).
class SoftwarePiLockBackend final : public LockBackend {
 public:
  /// Locks with id < `short_locks` are spin locks (short CSes).
  SoftwarePiLockBackend(std::size_t locks, const ServiceCosts& costs,
                        std::size_t short_locks = 0);

  LockAcquire acquire(LockId lock, TaskId who, Priority prio) override;
  LockRelease release(LockId lock, TaskId who) override;
  void cancel_wait(LockId lock, TaskId who) override;
  [[nodiscard]] TaskId owner(LockId lock) const override;
  [[nodiscard]] std::size_t lock_count() const override {
    return locks_.size();
  }
  [[nodiscard]] bool provides_ceiling() const override { return false; }
  [[nodiscard]] bool is_short(LockId lock) const override {
    return lock < short_locks_;
  }
  [[nodiscard]] std::size_t spin_poll_bus_words() const override {
    return 1;  // test&set on the lock word in shared memory
  }
  [[nodiscard]] std::optional<Priority> top_waiter(
      LockId lock) const override;
  void attach_observer(obs::Observer* o) override;

  [[nodiscard]] std::size_t waiter_count(LockId lock) const;

 private:
  struct Lock {
    TaskId owner = kNoTask;
    WaitList waiters;
  };
  std::vector<Lock> locks_;
  ServiceCosts costs_;
  std::size_t short_locks_ = 0;
  obs::Counter* ctr_acquires_ = nullptr;
  obs::Counter* ctr_enqueues_ = nullptr;
};

/// SoCLC-backed locks with hardware IPCP (RTOS6).
class SoclcLockBackend final : public LockBackend {
 public:
  /// The backend owns its lock-cache model; `ceilings[i]` programs lock
  /// i's IPCP ceiling (missing entries default to the highest priority).
  SoclcLockBackend(hw::SoclcConfig cfg, const ServiceCosts& costs,
                   const std::vector<Priority>& ceilings = {});

  LockAcquire acquire(LockId lock, TaskId who, Priority prio) override;
  LockRelease release(LockId lock, TaskId who) override;
  void cancel_wait(LockId lock, TaskId who) override;
  [[nodiscard]] TaskId owner(LockId lock) const override;
  [[nodiscard]] std::size_t lock_count() const override {
    return soclc_.lock_count();
  }
  [[nodiscard]] bool provides_ceiling() const override { return true; }
  [[nodiscard]] bool is_short(LockId lock) const override {
    return !soclc_.is_long_lock(lock);
  }
  [[nodiscard]] std::size_t spin_poll_bus_words() const override {
    return 0;  // waiters poll the lock cache, not the memory bus
  }
  [[nodiscard]] std::optional<Priority> top_waiter(LockId) const override {
    return std::nullopt;  // hardware IPCP makes inheritance unnecessary
  }
  void attach_observer(obs::Observer* o) override {
    if (o != nullptr) soclc_.attach_metrics(o->metrics);
  }

  [[nodiscard]] hw::Soclc& unit() { return soclc_; }

 private:
  hw::Soclc soclc_;
  ServiceCosts costs_;
};

}  // namespace delta::rtos

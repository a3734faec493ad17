// SoC Lock Cache (SoCLC) — hardware model (paper §2.3.1).
//
// A small custom unit holding lock variables outside shared memory. It
// gives single-bus-transaction lock acquisition (no spin traffic on the
// memory bus), a hardware waiter queue with priority-ordered hand-off,
// interrupt-driven wake-up of waiters, and hardware support for the
// Immediate Priority Ceiling Protocol (each lock carries a ceiling
// register; the grant response reports the ceiling so the local scheduler
// can raise the holder immediately).
//
// Short locks ("small") are intended for spin-length critical sections;
// long locks behave like semaphores with suspension — the distinction
// matters to the RTOS layer, the hardware queue logic is shared.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Lock index within the SoCLC.
using LockId = std::size_t;

/// Opaque owner tag: the RTOS encodes (pe, task) into it.
using LockOwnerTag = std::uint32_t;

inline constexpr LockOwnerTag kNoOwner = static_cast<LockOwnerTag>(-1);

/// Result of an acquire bus transaction.
struct SoclcGrant {
  bool granted = false;
  int ceiling = 0;       ///< lock's IPCP ceiling (valid when granted)
  sim::Cycles cycles = 0;///< bus transaction time consumed
};

/// Configuration: number of short and long locks (the GUI parameters of
/// the parameterized SoCLC generator, §2.2) and per-lock ceilings.
struct SoclcConfig {
  std::size_t short_locks = 8;
  std::size_t long_locks = 8;
  /// Bus cycles for one lock-cache access (address decode + grant logic);
  /// the unit sits on the bus like a register file.
  sim::Cycles access_cycles = 2;
  /// Cycles from release to the wake-up interrupt reaching the waiter PE.
  sim::Cycles interrupt_latency = 1;
};

/// The lock cache.
class Soclc {
 public:
  explicit Soclc(SoclcConfig cfg);

  [[nodiscard]] std::size_t lock_count() const { return locks_.size(); }
  [[nodiscard]] bool is_long_lock(LockId id) const {
    return id >= cfg_.short_locks;
  }
  [[nodiscard]] const SoclcConfig& config() const { return cfg_; }

  /// Program a lock's IPCP ceiling (done at configuration time).
  void set_ceiling(LockId id, int ceiling);

  /// One bus transaction: try to take the lock. On failure the caller is
  /// queued in hardware with `priority` (smaller = higher) and will be
  /// handed the lock by a later release.
  SoclcGrant acquire(LockId id, LockOwnerTag who, int priority);

  /// One bus transaction: release. If waiters exist the lock is handed to
  /// the highest-priority one, whose PE the wake-up interrupt reaches
  /// after the interrupt latency. Returns the new owner tag (kNoOwner if
  /// none); the RTOS wakes that task at the lock's ceiling().
  LockOwnerTag release(LockId id, LockOwnerTag who);

  /// Remove a queued waiter (task killed / timed out).
  void cancel_wait(LockId id, LockOwnerTag who);

  [[nodiscard]] LockOwnerTag owner(LockId id) const;
  [[nodiscard]] std::size_t waiter_count(LockId id) const;
  /// The lock's IPCP ceiling register.
  [[nodiscard]] int ceiling(LockId id) const { return locks_.at(id).ceiling; }

  /// Register "soclc.*" counters (acquires/grants/queued/handoffs).
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  struct Waiter {
    LockOwnerTag who;
    int priority;
    std::uint64_t seq;  ///< FIFO among equal priorities
  };
  struct Lock {
    LockOwnerTag owner = kNoOwner;
    int ceiling = 0;
    std::vector<Waiter> queue;
  };

  SoclcConfig cfg_;
  std::vector<Lock> locks_;
  std::uint64_t seq_ = 0;
  obs::Counter* ctr_acquires_ = nullptr;
  obs::Counter* ctr_grants_ = nullptr;
  obs::Counter* ctr_queued_ = nullptr;
  obs::Counter* ctr_handoffs_ = nullptr;
};

}  // namespace delta::hw

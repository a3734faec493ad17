#include "rtos/locks.h"

#include <stdexcept>

namespace delta::rtos {

// ------------------------------------------------- SoftwarePiLockBackend --

SoftwarePiLockBackend::SoftwarePiLockBackend(std::size_t locks,
                                             const ServiceCosts& costs,
                                             std::size_t short_locks)
    : locks_(locks), costs_(costs), short_locks_(short_locks) {
  if (locks == 0)
    throw std::invalid_argument("SoftwarePiLockBackend: zero locks");
}

LockAcquire SoftwarePiLockBackend::acquire(LockId lock, TaskId who,
                                           Priority prio) {
  Lock& lk = locks_.at(lock);
  LockAcquire out;
  out.cycles = costs_.sw_lock_acquire;
  if (ctr_acquires_ != nullptr) ctr_acquires_->add();
  if (lk.owner == kNoTask) {
    lk.owner = who;
    out.granted = true;
    return out;
  }
  lk.waiters.add(who, prio);
  if (ctr_enqueues_ != nullptr) ctr_enqueues_->add();
  return out;
}

LockRelease SoftwarePiLockBackend::release(LockId lock, TaskId who) {
  Lock& lk = locks_.at(lock);
  if (lk.owner != who)
    throw std::logic_error("software lock released by non-owner");
  LockRelease out;
  out.cycles = costs_.sw_lock_release;
  out.next = lk.waiters.pop();  // kNoTask frees the lock
  lk.owner = out.next;
  return out;
}

void SoftwarePiLockBackend::cancel_wait(LockId lock, TaskId who) {
  locks_.at(lock).waiters.remove(who);
}

TaskId SoftwarePiLockBackend::owner(LockId lock) const {
  return locks_.at(lock).owner;
}

std::size_t SoftwarePiLockBackend::waiter_count(LockId lock) const {
  return locks_.at(lock).waiters.size();
}

void SoftwarePiLockBackend::attach_observer(obs::Observer* o) {
  if (o == nullptr) return;
  ctr_acquires_ = &o->metrics.counter("lock.sw.acquires");
  ctr_enqueues_ = &o->metrics.counter("lock.sw.enqueues");
}

std::optional<Priority> SoftwarePiLockBackend::top_waiter(
    LockId lock) const {
  return locks_.at(lock).waiters.top_priority();
}

// ------------------------------------------------------ SoclcLockBackend --

SoclcLockBackend::SoclcLockBackend(hw::SoclcConfig cfg,
                                   const ServiceCosts& costs,
                                   const std::vector<Priority>& ceilings)
    : soclc_(cfg), costs_(costs) {
  for (std::size_t i = 0; i < soclc_.lock_count(); ++i)
    soclc_.set_ceiling(i, i < ceilings.size() ? ceilings[i] : 0);
}

LockAcquire SoclcLockBackend::acquire(LockId lock, TaskId who,
                                      Priority prio) {
  const hw::SoclcGrant g =
      soclc_.acquire(lock, static_cast<hw::LockOwnerTag>(who), prio);
  LockAcquire out;
  out.granted = g.granted;
  out.cycles = costs_.hw_lock_acquire + g.cycles;
  if (g.granted) out.ceiling = g.ceiling;
  return out;
}

LockRelease SoclcLockBackend::release(LockId lock, TaskId who) {
  const hw::LockOwnerTag next =
      soclc_.release(lock, static_cast<hw::LockOwnerTag>(who));
  LockRelease out;
  out.cycles = costs_.hw_lock_release + soclc_.config().access_cycles;
  if (next != hw::kNoOwner) {
    out.next = static_cast<TaskId>(next);
    out.ceiling = soclc_.ceiling(lock);
    out.cycles += soclc_.config().interrupt_latency;
  }
  return out;
}

void SoclcLockBackend::cancel_wait(LockId lock, TaskId who) {
  soclc_.cancel_wait(lock, static_cast<hw::LockOwnerTag>(who));
}

TaskId SoclcLockBackend::owner(LockId lock) const {
  const hw::LockOwnerTag o = soclc_.owner(lock);
  return o == hw::kNoOwner ? kNoTask : static_cast<TaskId>(o);
}

}  // namespace delta::rtos

#include "hw/soclc.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace delta::hw {

Soclc::Soclc(SoclcConfig cfg) : cfg_(cfg) {
  locks_.resize(cfg_.short_locks + cfg_.long_locks);
  if (locks_.empty())
    throw std::invalid_argument("Soclc: zero locks configured");
}

void Soclc::set_ceiling(LockId id, int ceiling) {
  locks_.at(id).ceiling = ceiling;
}

SoclcGrant Soclc::acquire(LockId id, LockOwnerTag who, int priority) {
  Lock& lk = locks_.at(id);
  SoclcGrant g;
  g.cycles = cfg_.access_cycles;
  if (ctr_acquires_ != nullptr) ctr_acquires_->add();
  if (lk.owner == kNoOwner) {
    lk.owner = who;
    g.granted = true;
    g.ceiling = lk.ceiling;
    if (ctr_grants_ != nullptr) ctr_grants_->add();
    return g;
  }
  assert(lk.owner != who && "recursive acquire not supported");
  lk.queue.push_back(Waiter{who, priority, seq_++});
  if (ctr_queued_ != nullptr) ctr_queued_->add();
  return g;
}

LockOwnerTag Soclc::release(LockId id, LockOwnerTag who) {
  Lock& lk = locks_.at(id);
  if (lk.owner != who)
    throw std::logic_error("Soclc::release by non-owner");
  if (lk.queue.empty()) {
    lk.owner = kNoOwner;
    return kNoOwner;
  }
  // Hardware priority hand-off: highest priority, FIFO among equals.
  auto best = std::min_element(
      lk.queue.begin(), lk.queue.end(), [](const Waiter& a, const Waiter& b) {
        if (a.priority != b.priority) return a.priority < b.priority;
        return a.seq < b.seq;
      });
  const LockOwnerTag next = best->who;
  lk.queue.erase(best);
  lk.owner = next;
  if (ctr_handoffs_ != nullptr) ctr_handoffs_->add();
  return next;
}

void Soclc::attach_metrics(obs::MetricsRegistry& m) {
  ctr_acquires_ = &m.counter("soclc.acquires");
  ctr_grants_ = &m.counter("soclc.grants");
  ctr_queued_ = &m.counter("soclc.queued");
  ctr_handoffs_ = &m.counter("soclc.handoffs");
}

void Soclc::cancel_wait(LockId id, LockOwnerTag who) {
  Lock& lk = locks_.at(id);
  std::erase_if(lk.queue, [who](const Waiter& w) { return w.who == who; });
}

LockOwnerTag Soclc::owner(LockId id) const { return locks_.at(id).owner; }

std::size_t Soclc::waiter_count(LockId id) const {
  return locks_.at(id).queue.size();
}

}  // namespace delta::hw

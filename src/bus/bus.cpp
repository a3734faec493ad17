#include "bus/bus.h"

#include <algorithm>
#include <stdexcept>

namespace delta::bus {

SharedBus::SharedBus(std::size_t masters, BusTiming timing)
    : timing_(timing), stats_(masters) {
  if (masters == 0) throw std::invalid_argument("SharedBus: zero masters");
}

sim::Cycles SharedBus::transfer_cycles(std::size_t words) const {
  if (words == 0) throw std::invalid_argument("transfer: zero words");
  return timing_.first_word +
         static_cast<sim::Cycles>(words - 1) * timing_.burst_word;
}

BusTransaction SharedBus::transfer(MasterId master, sim::Cycles now,
                                   std::size_t words) {
  MasterStats& st = stats_.at(master);
  BusTransaction tx;
  tx.start = std::max(now, busy_until_);
  tx.waited = tx.start - now;
  const sim::Cycles dur = transfer_cycles(words);
  tx.complete = tx.start + dur;
  busy_until_ = tx.complete;

  ++st.transactions;
  st.words += words;
  st.wait_cycles += tx.waited;
  st.busy_cycles += dur;

  if (obs_ != nullptr) {
    ctr_transactions_->add();
    ctr_words_->add(words);
    ctr_wait_cycles_->add(static_cast<std::uint64_t>(tx.waited));
    ctr_busy_cycles_->add(static_cast<std::uint64_t>(dur));
    obs_->trace.record(obs::EventKind::kBusTransfer,
                       static_cast<std::uint16_t>(master), tx.start, dur,
                       words, static_cast<std::uint64_t>(tx.waited));
  }
  return tx;
}

void SharedBus::set_observer(obs::Observer* o) {
  obs_ = o;
  if (o == nullptr) {
    ctr_transactions_ = ctr_words_ = ctr_wait_cycles_ = ctr_busy_cycles_ =
        nullptr;
    return;
  }
  ctr_transactions_ = &o->metrics.counter("bus.transactions");
  ctr_words_ = &o->metrics.counter("bus.words");
  ctr_wait_cycles_ = &o->metrics.counter("bus.wait_cycles");
  ctr_busy_cycles_ = &o->metrics.counter("bus.busy_cycles");
}

std::uint64_t SharedBus::total_transactions() const {
  std::uint64_t n = 0;
  for (const auto& s : stats_) n += s.transactions;
  return n;
}

sim::Cycles unit_round_trip(SharedBus* bus, MasterId master, sim::Cycles now,
                            sim::Cycles unit, sim::Cycles& unit_busy_until,
                            sim::Cycles pe_residue) {
  if (bus == nullptr) return 3 + unit + pe_residue + 3;
  sim::Cycles done = bus->transfer(master, now, 1).complete;  // command
  done = std::max(done + unit, unit_busy_until);
  unit_busy_until = done;
  done += pe_residue;
  return bus->transfer(master, done, 1).complete - now;  // status read
}

}  // namespace delta::bus

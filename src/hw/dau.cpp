#include "hw/dau.h"

#include <algorithm>

namespace delta::hw {

Dau::Dau(std::size_t resources, std::size_t processes)
    : m_(resources), n_(processes) {
  engine_ = std::make_unique<deadlock::DaaEngine>(
      resources, processes, [this](const rag::StateMatrix& s) {
        const DduResult r = Ddu::evaluate(s, probe_scratch_);
        probe_cycles_ += r.cycles;
        // Fault injection (tests): pretend every probe came back safe.
        return grant_fault_ ? false : r.deadlock;
      });
}

void Dau::set_priority(rag::ProcId p, int priority) {
  engine_->set_priority(p, priority);
}

deadlock::RequestResult Dau::request(rag::ProcId p, rag::ResId q) {
  probe_cycles_ = 0;
  deadlock::RequestResult r = engine_->request(p, q);
  last_probes_ = engine_->last_detect_calls();
  last_cycles_ = kRequestFsmSteps + probe_cycles_;
  note_command();
  return r;
}

deadlock::ReleaseResult Dau::release(rag::ProcId p, rag::ResId q) {
  probe_cycles_ = 0;
  deadlock::ReleaseResult r = engine_->release(p, q);
  last_probes_ = engine_->last_detect_calls();
  // The simple no-waiter path does not engage the queue-walk stages.
  const sim::Cycles fsm = last_probes_ == 0 ? kRequestFsmSteps : kReleaseFsmSteps;
  last_cycles_ = fsm + probe_cycles_;
  note_command();
  return r;
}

deadlock::ReleaseResult Dau::retry_grant(rag::ResId q) {
  probe_cycles_ = 0;
  deadlock::ReleaseResult r = engine_->retry_grant(q);
  last_probes_ = engine_->last_detect_calls();
  last_cycles_ = kReleaseFsmSteps + probe_cycles_;
  note_command();
  return r;
}

void Dau::cancel_request(rag::ProcId p, rag::ResId q) {
  engine_->cancel_request(p, q);
}

void Dau::attach_metrics(obs::MetricsRegistry& m) {
  ctr_commands_ = &m.counter("dau.commands");
  ctr_probes_ = &m.counter("dau.ddu_probes");
}

void Dau::note_command() {
  if (ctr_commands_ == nullptr) return;
  ctr_commands_->add();
  ctr_probes_->add(last_probes_);
}

sim::Cycles Dau::worst_case_cycles() const {
  // Release with every process waiting, each probe hitting the DDU's
  // worst-case iteration count: n probes x (2*min-4) steps + FSM stages.
  const std::size_t k = std::min(m_, n_);
  const std::size_t ddu_worst = k < 4 ? k : 2 * k - 4;
  return kReleaseFsmSteps + static_cast<sim::Cycles>(n_ * ddu_worst);
}

}  // namespace delta::hw

#include "hw/sharded_dau.h"

#include <algorithm>

namespace delta::hw {

ShardedDau::ShardedDau(std::size_t resources, std::size_t processes,
                       std::size_t clusters)
    : det_(deadlock::ClusterMap(resources, processes, clusters)),
      m_(resources),
      n_(processes) {
  engine_ = std::make_unique<deadlock::DaaEngine>(
      resources, processes, [this](const rag::StateMatrix& s) {
        // Every Algorithm-3 probe mutates only row `command_res_` of the
        // working matrix, so while the committed state is deadlock-free
        // the event-incremental hierarchical check applies and returns
        // the monolithic verdict. Algorithm 3 parks R-dl states, though
        // (the pending edge stays while the asked process unwinds), and
        // a parked cycle can sit in clusters the current command never
        // touches — the monolithic DAU's full-matrix probe keeps seeing
        // it, so until the commit log proves the state clean again the
        // resolver falls back to whole-state passes (same verdict,
        // detect_all cost).
        const deadlock::HierOutcome o =
            clean_ ? det_.detect_event(s, command_res_)
                   : det_.detect_all(s);
        probe_cycles_ += o.local_unit_cycles;
        ++probes_;
        if (o.escalated) {
          escalation_cycles_ += o.residue_sw_cycles;
          ++escalations_;
        }
        // Fault injection (tests): pretend every probe came back safe.
        return grant_fault_ ? false : o.deadlock;
      });
}

void ShardedDau::set_priority(rag::ProcId p, int priority) {
  engine_->set_priority(p, priority);
}

void ShardedDau::begin_command(rag::ResId q) {
  command_res_ = q;
  probe_cycles_ = 0;
  escalation_cycles_ = 0;
  probes_ = 0;
  escalations_ = 0;
}

void ShardedDau::end_command(sim::Cycles fsm) {
  last_cycles_ = fsm + probe_cycles_;
  last_escalation_cycles_ = escalation_cycles_;
  last_probes_ = probes_;
  last_escalations_ = escalations_;
  note_command();
}

deadlock::RequestResult ShardedDau::request(rag::ProcId p, rag::ResId q) {
  begin_command(q);
  deadlock::RequestResult r = engine_->request(p, q);
  // Commit-log bookkeeping for the detect_event precondition. R-dl parks
  // a cycle in the committed state. Otherwise, when arbitration probed at
  // all and did not end in livelock resolution, the state the engine
  // committed is exactly the last probed (safe) state, so it is provably
  // deadlock-free again. Paths that commit without a probe (immediate
  // grant, duplicate request) cannot create a cycle and leave the flag
  // as-is.
  if (r.r_dl) clean_ = false;
  else if (probes_ > 0 && !r.livelock) clean_ = true;
  end_command(Dau::kRequestFsmSteps);
  return r;
}

deadlock::ReleaseResult ShardedDau::release(rag::ProcId p, rag::ResId q) {
  begin_command(q);
  deadlock::ReleaseResult r = engine_->release(p, q);
  // A committed grant was probed safe on the committed state itself.
  // kIdle / livelock resolution only remove edges: they may or may not
  // dissolve a parked cycle, so a dirty flag stays (conservatively) set.
  if (r.outcome == deadlock::ReleaseOutcome::kGrantedHighest ||
      r.outcome == deadlock::ReleaseOutcome::kGrantedLower)
    clean_ = true;
  // Same FSM shape as the monolithic DAU: the no-waiter path skips the
  // queue-walk stages.
  const sim::Cycles fsm =
      probes_ == 0 ? Dau::kRequestFsmSteps : Dau::kReleaseFsmSteps;
  end_command(fsm);
  return r;
}

deadlock::ReleaseResult ShardedDau::retry_grant(rag::ResId q) {
  begin_command(q);
  deadlock::ReleaseResult r = engine_->retry_grant(q);
  if (r.outcome == deadlock::ReleaseOutcome::kGrantedHighest ||
      r.outcome == deadlock::ReleaseOutcome::kGrantedLower)
    clean_ = true;
  end_command(Dau::kReleaseFsmSteps);
  return r;
}

void ShardedDau::cancel_request(rag::ProcId p, rag::ResId q) {
  engine_->cancel_request(p, q);
}

sim::Cycles ShardedDau::worst_case_cycles() const {
  const deadlock::ClusterMap& map = det_.map();
  std::size_t cluster_worst = 0;
  for (std::size_t c = 0; c < map.clusters(); ++c) {
    const std::size_t k =
        std::min(map.resource_count(c), map.process_count(c));
    cluster_worst = std::max(cluster_worst, k < 4 ? k : 2 * k - 4);
  }
  return Dau::kReleaseFsmSteps +
         static_cast<sim::Cycles>(n_ * cluster_worst);
}

void ShardedDau::attach_metrics(obs::MetricsRegistry& m) {
  ctr_commands_ = &m.counter("sharded_dau.commands");
  ctr_probes_ = &m.counter("sharded_dau.probes");
  ctr_escalations_ = &m.counter("sharded_dau.escalations");
}

void ShardedDau::note_command() {
  if (ctr_commands_ == nullptr) return;
  ctr_commands_->add();
  ctr_probes_->add(last_probes_);
  ctr_escalations_->add(last_escalations_);
}

}  // namespace delta::hw

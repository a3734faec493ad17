// Scaling ablation: avoidance approaches (§3.3.3, §4.3) — the paper's
// DAA driven by the DDU (as in the DAU) vs driven by software PDDA, vs
// Banker's algorithm (needs a-priori claims) and Belik's path-matrix
// method — on a common random request/release workload.
//
// Gate: the DAU's total cycles must stay below the software DAA's at
// every system size.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "deadlock/avoidance_baselines.h"
#include "deadlock/daa.h"
#include "deadlock/pdda.h"
#include "hw/dau.h"
#include "sim/random.h"

namespace {

using delta::rag::Edge;
using delta::rag::ProcId;
using delta::rag::ResId;

struct WorkloadEvent {
  bool release;
  ProcId p;
  ResId q;
};

// A deterministic stream of plausible events; each engine interprets it
// with its own admission rules, skipping events that are invalid for its
// current state.
std::vector<WorkloadEvent> make_workload(std::size_t k, std::size_t events) {
  delta::sim::Rng rng(1234);
  std::vector<WorkloadEvent> out;
  for (std::size_t i = 0; i < events; ++i)
    out.push_back({rng.chance(0.45), rng.below(k), rng.below(k)});
  return out;
}

// Feed the workload to `engine`: a release only of a granted edge, a
// request only on an empty cell; on_applied(engine) runs after each.
template <typename Engine, typename OnApplied>
void drive(Engine& engine, const std::vector<WorkloadEvent>& events,
           OnApplied on_applied) {
  for (const WorkloadEvent& e : events) {
    const Edge edge = engine.state().at(e.q, e.p);
    if (e.release) {
      if (edge != Edge::kGrant) continue;
      engine.release(e.p, e.q);
    } else {
      if (edge != Edge::kNone) continue;
      engine.request(e.p, e.q);
    }
    on_applied(engine);
  }
}

std::uint64_t dau_cycles(std::size_t k,
                         const std::vector<WorkloadEvent>& events) {
  delta::hw::Dau dau(k, k);
  std::uint64_t cycles = 0;
  drive(dau, events,
        [&](const delta::hw::Dau& d) { cycles += d.last_cycles(); });
  return cycles;
}

std::uint64_t daa_software_cycles(std::size_t k,
                                  const std::vector<WorkloadEvent>& events) {
  delta::deadlock::SoftwarePdda pdda;
  std::uint64_t cycles = 0;
  delta::deadlock::DaaEngine engine(
      k, k, [&](const delta::rag::StateMatrix& s) {
        const bool dl = pdda.detect(s);
        cycles += pdda.last_cycles();
        return dl;
      });
  drive(engine, events, [](const auto&) {});
  return cycles;
}

std::uint64_t bankers_ops(std::size_t k,
                          const std::vector<WorkloadEvent>& events) {
  delta::deadlock::Banker banker(k, k);
  for (ProcId p = 0; p < k; ++p)
    for (ResId q = 0; q < k; ++q) banker.declare_claim(p, q);
  banker.reset_meter();
  drive(banker, events, [](const auto&) {});
  return banker.meter().total();
}

std::uint64_t belik_ops(std::size_t k,
                        const std::vector<WorkloadEvent>& events) {
  delta::deadlock::BelikAvoider belik(k, k);
  drive(belik, events, [](const auto&) {});
  return belik.meter().total();
}

}  // namespace

int main() {
  std::printf("Scaling ablation — avoidance algorithms (paper §3.3.3/§4.3),\n"
              "200-event random request/release workload per k:\n");
  std::printf("\n%-6s %10s %14s %14s %12s\n", "k", "DAU(cyc)", "DAA sw(cyc)",
              "Banker's(ops)", "Belik(ops)");
  bool ok = true;
  for (std::size_t k : {5, 10, 20}) {
    const auto events = make_workload(k, 200);
    const std::uint64_t dau = dau_cycles(k, events);
    const std::uint64_t daa = daa_software_cycles(k, events);
    std::printf("%-6zu %10llu %14llu %14llu %12llu\n", k,
                static_cast<unsigned long long>(dau),
                static_cast<unsigned long long>(daa),
                static_cast<unsigned long long>(bankers_ops(k, events)),
                static_cast<unsigned long long>(belik_ops(k, events)));
    if (dau >= daa) {
      std::printf("FAIL: k=%zu DAU %llu cycles not below software DAA %llu\n",
                  k, static_cast<unsigned long long>(dau),
                  static_cast<unsigned long long>(daa));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

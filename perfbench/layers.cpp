// Per-layer microbenches: a plain CPU-clock harness (no benchmark
// library) driving the sim/rtos/hw/deadlock/bus/rag public calls on
// inputs at the geometries the workloads use — the paper's 5x5 units and
// the 64x64 large-fuzz geometry. Each bench reports the median CPU
// nanoseconds per operation over many timed repetitions.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "deadlock/bankers.h"
#include "deadlock/daa.h"
#include "deadlock/hierarchical.h"
#include "deadlock/pdda.h"
#include "deadlock/wfg.h"
#include "harness.h"
#include "hw/dau.h"
#include "hw/ddu.h"
#include "hw/sharded_dau.h"
#include "hw/sharded_ddu.h"
#include "hw/socdmmu.h"
#include "hw/soclc.h"
#include "rag/generators.h"
#include "rag/oracle.h"
#include "rtos/locks.h"
#include "rtos/memory_manager.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace perfbench {
namespace {

using namespace delta;

/// Results are folded in here so no timed call can be optimized away.
volatile std::uint64_t g_sink = 0;

struct Bench {
  std::string name;
  /// Untimed: (re)build the state one repetition starts from.
  std::function<void()> prepare;
  /// Timed: one repetition; returns the operations it performed.
  std::function<std::uint64_t()> run;
};

/// Median ns per operation over repetitions filling `budget` CPU seconds
/// (at least five).
double ns_per_op(const Bench& b, double budget) {
  std::vector<double> samples;
  const std::uint64_t start = cpu_ns();
  while (samples.size() < 5 ||
         static_cast<double>(cpu_ns() - start) * 1e-9 < budget) {
    if (b.prepare) b.prepare();
    const std::uint64_t t0 = cpu_ns();
    const std::uint64_t ops = b.run();
    samples.push_back(static_cast<double>(cpu_ns() - t0) /
                      static_cast<double>(ops));
  }
  return median(std::move(samples));
}

/// The large-fuzz geometry (the paper's units are 5x5).
constexpr std::size_t kLarge = 64;

std::string geo(std::size_t k) {
  return std::to_string(k) + "x" + std::to_string(k);
}

/// Random well-formed k x k states; at 64x64 about one request per row,
/// so some states are deadlocked and some reduce away.
std::vector<rag::StateMatrix> states(std::size_t k) {
  sim::Rng rng(0x5eed + k);
  std::vector<rag::StateMatrix> out;
  for (int i = 0; i < 16; ++i)
    out.push_back(k <= 8 ? rag::random_state(k, k, rng)
                         : rag::random_state(k, k, rng, 0.5, 1.0 / k));
  return out;
}

/// Request/release script over a k x k system (the scaling benches' mix:
/// 45% releases of held resources, otherwise requests of untouched cells).
struct Op {
  bool release;
  rag::ProcId p;
  rag::ResId q;
};
std::vector<Op> script(std::size_t k) {
  sim::Rng rng(0xdead + k);
  std::vector<Op> ops;
  const std::size_t n = k <= 8 ? 200 : 2000;
  for (std::size_t i = 0; i < n; ++i)
    ops.push_back({rng.chance(0.45), rng.below(k), rng.below(k)});
  return ops;
}

/// Replays script(k) against an engine exposing request/release/state().
template <class Engine>
Bench replay(std::string name, std::size_t k,
             std::function<std::unique_ptr<Engine>()> make) {
  auto engine = std::make_shared<std::unique_ptr<Engine>>();
  auto ops = std::make_shared<std::vector<Op>>(script(k));
  return {std::move(name), [engine, make] { *engine = make(); },
          [engine, ops]() -> std::uint64_t {
            Engine& e = **engine;
            std::uint64_t n = 0;
            for (const Op& op : *ops) {
              const rag::Edge edge = e.state().at(op.q, op.p);
              if (op.release) {
                if (edge != rag::Edge::kGrant) continue;
                (void)e.release(op.p, op.q);
              } else {
                if (edge != rag::Edge::kNone) continue;
                (void)e.request(op.p, op.q);
              }
              ++n;
            }
            return n == 0 ? 1 : n;
          }};
}

/// Evaluates `fn` on each of states(k), `reps` rounds per repetition.
Bench over_states(std::string name, std::size_t k, int reps,
                  std::function<std::uint64_t(const rag::StateMatrix&)> fn) {
  auto in = std::make_shared<std::vector<rag::StateMatrix>>(states(k));
  return {std::move(name), nullptr, [in, fn, reps]() -> std::uint64_t {
            std::uint64_t acc = 0;
            for (int r = 0; r < reps; ++r)
              for (const rag::StateMatrix& s : *in) acc += fn(s);
            g_sink = g_sink + acc;
            return static_cast<std::uint64_t>(reps) * in->size();
          }};
}

/// Schedule+pop on an EventQueue holding `live` events, each pop
/// rescheduling one event `lo`..`hi` cycles past the popped time.
Bench queue_bench(std::string name, std::size_t live, sim::Cycles lo,
                  sim::Cycles hi) {
  auto q = std::make_shared<sim::EventQueue>();
  auto fired = std::make_shared<std::uint64_t>(0);
  auto deltas = std::make_shared<std::vector<sim::Cycles>>();
  sim::Rng rng(0x9e3 + live);
  for (int i = 0; i < 1024; ++i) deltas->push_back(lo + rng.below(hi - lo));
  for (std::size_t i = 0; i < live; ++i)
    q->schedule((*deltas)[i], [p = fired.get()] { ++*p; });
  return {std::move(name), nullptr, [q, fired, deltas]() -> std::uint64_t {
            constexpr std::uint64_t kOps = 20'000;
            for (std::uint64_t i = 0; i < kOps; ++i) {
              sim::Fired f = q->pop();
              f.fn();
              q->schedule(f.at + (*deltas)[i & 1023],
                          [p = fired.get()] { ++*p; });
            }
            g_sink = g_sink + *fired;
            return kOps;
          }};
}

std::vector<Bench> benches() {
  std::vector<Bench> out;

  // sim: event queue.
  out.push_back(queue_bench("sim.sched_pop_ns.live4", 4, 100, 2'000));
  out.push_back(queue_bench("sim.sched_pop_ns.live64", 64, 100, 20'000));
  out.push_back(queue_bench("sim.sched_pop_ns.far", 8, 40'000, 120'000));

  // rtos: software lock and heap backends, uncontended.
  {
    auto b = std::make_shared<rtos::SoftwarePiLockBackend>(8, rtos::ServiceCosts{});
    out.push_back({"rtos.pi_lock_ns", nullptr, [b]() -> std::uint64_t {
                     constexpr std::uint64_t kOps = 20'000;
                     std::uint64_t acc = 0;
                     for (std::uint64_t i = 0; i < kOps; ++i) {
                       const rtos::LockId l = i & 7;
                       const auto who = static_cast<rtos::TaskId>(i % 5);
                       acc += b->acquire(l, who, 3).cycles;
                       acc += b->release(l, who).cycles;
                     }
                     g_sink = g_sink + acc;
                     return kOps;
                   }});
  }
  {
    auto h = std::make_shared<rtos::SoftwareHeapBackend>(
        0x0080'0000, 8ULL * 1024 * 1024, rtos::ServiceCosts{});
    auto live = std::make_shared<std::vector<std::uint64_t>>(16, 0);
    out.push_back({"rtos.heap_alloc_ns", nullptr, [h, live]() -> std::uint64_t {
                     constexpr std::uint64_t kOps = 20'000;
                     for (std::uint64_t i = 0; i < kOps; ++i) {
                       std::uint64_t& slot = (*live)[i & 15];
                       if (slot != 0) (void)h->free(0, slot, i);
                       slot = h->alloc(0, 64 + (i * 97) % 4096, i).addr;
                     }
                     return kOps;
                   }});
  }

  // hw: SoCLC and SoCDMMU.
  {
    auto s = std::make_shared<hw::Soclc>(hw::SoclcConfig{});
    out.push_back({"hw.soclc_lock_ns", nullptr, [s]() -> std::uint64_t {
                     constexpr std::uint64_t kOps = 20'000;
                     std::uint64_t acc = 0;
                     for (std::uint64_t i = 0; i < kOps; ++i) {
                       const hw::LockId l = i & 15;
                       const auto who = static_cast<hw::LockOwnerTag>(i % 5);
                       acc += s->acquire(l, who, 3).cycles;
                       acc += s->release(l, who);
                     }
                     g_sink = g_sink + acc;
                     return kOps;
                   }});
  }
  {
    auto d = std::make_shared<hw::Socdmmu>(hw::SocdmmuConfig{});
    auto live = std::make_shared<std::vector<std::uint64_t>>(8, 0);
    out.push_back({"hw.socdmmu_alloc_ns", nullptr, [d, live]() -> std::uint64_t {
                     constexpr std::uint64_t kOps = 20'000;
                     for (std::uint64_t i = 0; i < kOps; ++i) {
                       std::uint64_t& slot = (*live)[i & 7];
                       if (slot != 0) (void)d->dealloc(i & 3, slot);
                       slot = d->alloc(i & 3, 4096 + (i * 7919) % (96 * 1024))
                                  .virtual_addr;
                     }
                     return kOps;
                   }});
  }

  for (const std::size_t k : {std::size_t{5}, std::size_t{64}}) {
    const int reps = k <= 8 ? 400 : 4;
    // hw: DDU evaluation and DAU commands.
    auto ddu = std::make_shared<hw::Ddu>(k, k);
    out.push_back(over_states("hw.ddu_run_ns." + geo(k), k, reps,
                              [ddu](const rag::StateMatrix& s) -> std::uint64_t {
                                ddu->load(s);
                                return ddu->run().iterations;
                              }));
    out.push_back(replay<hw::Dau>("hw.dau_request_ns." + geo(k), k, [k] {
      return std::make_unique<hw::Dau>(k, k);
    }));
    // deadlock: software detection and avoidance request paths.
    auto pdda = std::make_shared<deadlock::SoftwarePdda>();
    out.push_back(over_states("deadlock.pdda_detect_ns." + geo(k), k, reps,
                              [pdda](const rag::StateMatrix& s) -> std::uint64_t {
                                return pdda->detect(s) ? 1 : 0;
                              }));
    out.push_back(replay<deadlock::DaaEngine>(
        "deadlock.daa_request_ns." + geo(k), k, [k] {
          auto pdda = std::make_shared<deadlock::SoftwarePdda>();
          return std::make_unique<deadlock::DaaEngine>(
              k, k, [pdda](const rag::StateMatrix& s) { return pdda->detect(s); });
        }));
    out.push_back(replay<deadlock::BankersEngine>(
        "deadlock.bankers_request_ns." + geo(k), k, [k] {
          auto b = std::make_unique<deadlock::BankersEngine>(k, k);
          std::vector<rag::ResId> all(k);
          for (rag::ResId q = 0; q < k; ++q) all[q] = q;
          for (rag::ProcId p = 0; p < k; ++p) b->declare_claims(p, all);
          return b;
        }));
    out.push_back(over_states("deadlock.wfg_scan_ns." + geo(k), k, reps,
                              [](const rag::StateMatrix& s) -> std::uint64_t {
                                return deadlock::scan_wait_for_graph(s).deadlock;
                              }));
  }

  const std::size_t clusters = deadlock::ClusterMap::default_clusters(kLarge);
  auto sharded = std::make_shared<hw::ShardedDdu>(kLarge, kLarge, clusters);
  out.push_back(over_states(
      "hw.sharded_ddu_ns." + geo(kLarge), kLarge, 4,
      [sharded](const rag::StateMatrix& s) -> std::uint64_t {
        sharded->load(s);
        return sharded->run_all().deadlock;
      }));
  out.push_back(replay<hw::ShardedDau>(
      "hw.sharded_dau_ns." + geo(kLarge), kLarge, [clusters] {
        return std::make_unique<hw::ShardedDau>(kLarge, kLarge, clusters);
      }));
  auto hier = std::make_shared<deadlock::HierarchicalDetector>(
      deadlock::ClusterMap(kLarge, kLarge, clusters));
  out.push_back(over_states(
      "deadlock.hier_detect_ns." + geo(kLarge), kLarge, 4,
      [hier](const rag::StateMatrix& s) -> std::uint64_t {
        return hier->detect_all(s).deadlock;
      }));

  // bus: contended single-bus transfers from five masters.
  {
    auto bus = std::make_shared<bus::SharedBus>(5);
    auto now = std::make_shared<sim::Cycles>(0);
    out.push_back({"bus.transfer_ns", nullptr, [bus, now]() -> std::uint64_t {
                     constexpr std::uint64_t kOps = 20'000;
                     std::uint64_t acc = 0;
                     for (std::uint64_t i = 0; i < kOps; ++i) {
                       acc += bus->transfer(i % 5, *now, 1 + (i & 7)).complete;
                       *now += 1 + (i * 13) % 9;
                     }
                     g_sink = g_sink + acc;
                     return kOps;
                   }});
  }

  // rag: the reference cycle oracle.
  out.push_back(over_states("rag.oracle_cycle_ns." + geo(kLarge), kLarge, 4,
                            [](const rag::StateMatrix& s) -> std::uint64_t {
                              return rag::oracle_has_cycle(s) ? 1 : 0;
                            }));
  return out;
}

}  // namespace

void layer_microbenches(double seconds, Metrics& out) {
  const std::vector<Bench> all = benches();
  const double each = seconds / static_cast<double>(all.size());
  for (const Bench& b : all) put(out, b.name, ns_per_op(b, each), "ns");
}

}  // namespace perfbench

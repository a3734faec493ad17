// Ablation: on-chip memory traffic of lock synchronization.
//
// §2.3.1: the SoCLC "reduces on-chip memory traffic" because waiters
// spin on the lock cache instead of on lock words in shared memory.
// This bench runs a spin-heavy synchronization workload under both lock
// subsystems (short-CS spin protocol enabled) and reports the bus words
// moved, the contention wait the data traffic suffers, and throughput.
#include <cstdio>

#include "bench/bench_util.h"
#include "obs/observer.h"
#include "rtos/kernel.h"

using namespace delta;
using namespace delta::rtos;

namespace {

struct Result {
  std::uint64_t bus_words = 0;
  sim::Cycles data_wait = 0;      ///< bus wait suffered by PE0's data task
  sim::Cycles makespan = 0;
  bool finished = false;
  std::uint64_t spin_polls = 0;   ///< obs counter lock.spins
  std::uint64_t contended = 0;    ///< obs counter lock.contended
};

Result run(bool soclc) {
  sim::Simulator sim;
  obs::Observer obs;
  bus::SharedBus bus(5);
  bus.set_observer(&obs);
  KernelConfig cfg;
  cfg.spin_short_locks = true;
  std::unique_ptr<LockBackend> locks;
  if (soclc) {
    hw::SoclcConfig sc;
    locks = std::make_unique<SoclcLockBackend>(sc, cfg.costs);
  } else {
    locks = std::make_unique<SoftwarePiLockBackend>(16, cfg.costs,
                                                    /*short=*/8);
  }
  Kernel kernel(sim, bus, cfg,
                make_strategy(DeadlockComponent::kNone, 4, 8, cfg.costs),
                std::move(locks),
                std::make_unique<SoftwareHeapBackend>(0x1000, 1 << 20,
                                                      cfg.costs),
                &obs);

  // Three PEs contend on one short lock in tight loops: at any moment at
  // least one PE is spinning, which pounds the bus in the software
  // configuration.
  for (int t = 0; t < 3; ++t) {
    Program p;
    for (int i = 0; i < 25; ++i) {
      p.compute(30)
          .lock(0)
          .compute(400)
          .unlock(0)
          .compute(50);
    }
    kernel.create_task("sync" + std::to_string(t), static_cast<PeId>(t + 1),
                       t + 2, std::move(p), static_cast<sim::Cycles>(40 * t));
  }
  kernel.start();
  // PE0 streams data over the bus (8-word bursts) — the victim of the
  // spinners' traffic.
  for (int i = 0; i < 800; ++i)
    sim.schedule_at(static_cast<sim::Cycles>(40 * i + 7),
                    [&bus, &sim] { bus.transfer(0, sim.now(), 8); });
  sim.run(5'000'000);

  Result r;
  for (bus::MasterId m = 0; m < 5; ++m) r.bus_words += bus.stats(m).words;
  r.data_wait = bus.stats(0).wait_cycles;
  r.makespan = kernel.last_finish_time();
  r.finished = kernel.all_finished();
  r.spin_polls = obs.metrics.counter_value("lock.spins");
  r.contended = obs.metrics.counter_value("lock.contended");
  return r;
}

}  // namespace

int main() {
  bench::header("Ablation — lock-synchronization memory traffic",
                "Lee & Mooney, DATE 2003, §2.3.1 (SoCLC reduces on-chip "
                "memory traffic)");

  const Result sw = run(false);
  const Result hw = run(true);

  std::printf("\n%-28s %14s %14s\n", "", "software locks", "SoCLC");
  std::printf("%-28s %14llu %14llu\n", "total bus words moved",
              static_cast<unsigned long long>(sw.bus_words),
              static_cast<unsigned long long>(hw.bus_words));
  std::printf("%-28s %14llu %14llu\n", "data-stream bus wait (cyc)",
              static_cast<unsigned long long>(sw.data_wait),
              static_cast<unsigned long long>(hw.data_wait));
  std::printf("%-28s %14llu %14llu\n", "workload makespan (cyc)",
              static_cast<unsigned long long>(sw.makespan),
              static_cast<unsigned long long>(hw.makespan));
  std::printf("%-28s %14llu %14llu\n", "spin polls (lock.spins)",
              static_cast<unsigned long long>(sw.spin_polls),
              static_cast<unsigned long long>(hw.spin_polls));
  std::printf("%-28s %14llu %14llu\n", "contended acquires",
              static_cast<unsigned long long>(sw.contended),
              static_cast<unsigned long long>(hw.contended));
  std::printf("%-28s %14s %14s\n", "all tasks finished",
              sw.finished ? "yes" : "NO", hw.finished ? "yes" : "NO");

  const double traffic_cut =
      100.0 * (1.0 - static_cast<double>(hw.bus_words) /
                         static_cast<double>(sw.bus_words));
  std::printf("\nSoCLC removes %.0f%% of the synchronization-era bus words\n"
              "and the data stream's queueing drops accordingly.\n",
              traffic_cut);
  const bool ok = sw.finished && hw.finished && hw.bus_words < sw.bus_words;
  return ok ? 0 : 1;
}

// Shared bare-kernel test fixture.
//
// A World is the smallest complete system a kernel test needs: one
// simulator, one shared bus, and a Kernel wired to a selectable deadlock
// strategy plus the software lock and heap backends. It grew out of the
// ad-hoc structs in tests/integration/kernel_fuzz_test.cpp and
// failure_injection_test.cpp and is the fixture every kernel-level suite
// (including the differential fuzz suites) should reuse instead of
// re-rolling its own. For whole-MPSoC fixtures use soc::Mpsoc /
// soc::generate() instead — this one deliberately skips devices and
// hardware lock/memory units to keep per-test setup cost near zero.
#pragma once

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "rtos/kernel.h"

namespace delta::tests {

struct WorldConfig {
  rtos::DeadlockComponent deadlock = rtos::DeadlockComponent::kDaaSoftware;
  std::size_t pe_count = 4;
  std::size_t resource_count = 5;
  std::size_t max_tasks = 5;
  rtos::RecoveryPolicy recovery = rtos::RecoveryPolicy::kNone;
  std::size_t lock_count = 8;
  std::uint64_t heap_base = 0x1000;
  std::uint64_t heap_bytes = 1 << 20;
  /// Periodic scan period for kWfgRecovery (KernelConfig::detection_period).
  sim::Cycles detection_period = 0;
  /// Banker's max-claims table for kBankers (KernelConfig::claims).
  std::vector<std::vector<rtos::ResourceId>> claims;
  /// Keep running after a detection (pair with a recovery policy).
  bool stop_on_deadlock = true;
};

struct World {
  sim::Simulator sim;
  bus::SharedBus bus;
  std::unique_ptr<rtos::Kernel> kernel;

  explicit World(const WorldConfig& wc = {})
      : bus(wc.pe_count + 1) {  // one master per PE + one for the unit
    rtos::KernelConfig cfg;
    cfg.pe_count = wc.pe_count;
    cfg.resource_count = wc.resource_count;
    cfg.max_tasks = wc.max_tasks;
    cfg.recovery = wc.recovery;
    cfg.detection_period = wc.detection_period;
    cfg.claims = wc.claims;
    cfg.stop_on_deadlock = wc.stop_on_deadlock;
    // Hardware units answer each task on its own PE's bus master.
    kernel = std::make_unique<rtos::Kernel>(
        sim, bus, cfg,
        rtos::make_strategy(wc.deadlock, wc.resource_count, wc.max_tasks,
                            cfg.costs, &bus, wc.pe_count),
        std::make_unique<rtos::SoftwarePiLockBackend>(wc.lock_count,
                                                      cfg.costs),
        std::make_unique<rtos::SoftwareHeapBackend>(wc.heap_base,
                                                    wc.heap_bytes, cfg.costs));
  }

  /// Convenience constructor matching the historical fuzz-test shape.
  World(rtos::DeadlockComponent kind, rtos::RecoveryPolicy recovery)
      : World(make_config(kind, recovery)) {}

  [[nodiscard]] rtos::Kernel& k() { return *kernel; }

  /// Start the kernel and run to completion or `limit`.
  sim::Cycles run(sim::Cycles limit = 50'000'000) {
    kernel->start();
    return sim.run(limit);
  }

 private:
  static WorldConfig make_config(rtos::DeadlockComponent kind,
                                 rtos::RecoveryPolicy recovery) {
    WorldConfig wc;
    wc.deadlock = kind;
    wc.recovery = recovery;
    return wc;
  }
};

}  // namespace delta::tests

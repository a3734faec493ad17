// Device jobs and interrupt delivery.
//
// The base MPSoC's four resources "have timers, interrupt generators and
// input/output ports" (§5.1). A task that holds a resource can start a
// *device job* on it: the unit processes autonomously (the PE is free to
// run other tasks) and raises a completion interrupt that wakes the
// waiting task. Each device serializes its jobs; the interrupt controller
// models per-PE delivery latency and masking (a PE inside a kernel
// service takes the interrupt when it re-enables interrupts).
#pragma once

#include <cstdint>
#include <vector>

#include "rtos/types.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace delta::rtos {

/// One device (indexed by ResourceId) plus the interrupt fabric.
class DeviceManager {
 public:
  /// `pe_count` interrupt lines; `devices` units.
  DeviceManager(sim::Simulator& sim, std::size_t devices,
                std::size_t pe_count, sim::Cycles irq_latency = 2);

  /// Start a job of `cycles` on `dev`; `on_complete` fires on PE `pe`
  /// once the completion interrupt is delivered there. Jobs on the same
  /// device serialize. Returns the completion (pre-interrupt) time.
  sim::Cycles start_job(ResourceId dev, PeId pe, sim::Cycles cycles,
                        sim::SmallFn on_complete);

  /// Mask/unmask a PE's interrupt intake (kernel services run masked).
  /// Pending interrupts deliver right after unmasking. Called twice per
  /// kernel service, so the flag flip stays header-inline; the rare
  /// drain of deferred interrupts is the out-of-line path.
  void set_masked(PeId pe, bool masked) {
    masked_[pe] = masked;
    if (!masked && !pending_[pe].empty()) drain(pe);
  }
  [[nodiscard]] bool masked(PeId pe) const { return masked_.at(pe) != 0; }

  /// Statistics.
  [[nodiscard]] std::uint64_t jobs_completed(ResourceId dev) const {
    return jobs_.at(dev);
  }
  [[nodiscard]] sim::Cycles busy_cycles(ResourceId dev) const {
    return busy_.at(dev);
  }
  [[nodiscard]] std::uint64_t interrupts_delivered() const {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t interrupts_deferred() const {
    return deferred_;
  }

 private:
  sim::Simulator& sim_;
  std::size_t devices_;
  sim::Cycles irq_latency_;
  std::vector<sim::Cycles> device_free_at_;
  std::vector<std::uint64_t> jobs_;
  std::vector<sim::Cycles> busy_;
  std::vector<std::uint8_t> masked_;  ///< per PE; bytes, not bits
  std::vector<std::vector<sim::SmallFn>> pending_;  // per PE
  std::uint64_t delivered_ = 0;
  std::uint64_t deferred_ = 0;

  void deliver(PeId pe, sim::SmallFn handler);
  void drain(PeId pe);
};

}  // namespace delta::rtos

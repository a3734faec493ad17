// Memory-management backends.
//
// RTOS5/RTOS7 of Table 3 differ here: the software backend runs the
// instrumented glibc-style heap (mem::SoftwareHeap) on the invoking PE;
// the hardware backend drives the SoCDMMU through its command port. Both
// report per-call cycles, and both accumulate the totals the Tables 11/12
// "memory management time" columns need.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bus/bus.h"
#include "hw/socdmmu.h"
#include "mem/heap.h"
#include "obs/observer.h"
#include "rtos/service_costs.h"
#include "rtos/types.h"
#include "sim/sim_time.h"

namespace delta::rtos {

/// Result of an allocation/free service call.
struct MemResult {
  bool ok = false;
  std::uint64_t addr = 0;
  sim::Cycles pe_cycles = 0;
};

class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual MemResult alloc(PeId pe, std::uint64_t bytes, sim::Cycles now) = 0;
  virtual MemResult free(PeId pe, std::uint64_t addr, sim::Cycles now) = 0;

  /// Shared allocation (the SoCDMMU's G_alloc_rw/G_alloc_ro): the first
  /// rw call of a region id creates it; later calls attach. `writable`
  /// selects rw vs ro. Backends emulate in software where no hardware
  /// protection exists.
  virtual MemResult alloc_shared(PeId pe, std::size_t region,
                                 std::uint64_t bytes, bool writable,
                                 sim::Cycles now) = 0;
  /// Cycles spent in memory management since construction (Table 11/12).
  [[nodiscard]] virtual sim::Cycles total_mgmt_cycles() const = 0;
  [[nodiscard]] virtual std::uint64_t call_count() const = 0;

  /// Bytes currently allocated (the windowed sampler's heap gauge).
  /// Block-granular backends report whole blocks.
  [[nodiscard]] virtual std::uint64_t bytes_in_use() const { return 0; }

  /// Attach observability (default: no-op). Hardware backends register
  /// their unit's counters into the registry.
  virtual void attach_observer(obs::Observer* o) { (void)o; }
};

/// glibc-style software heap (the conventional technique of Table 11).
class SoftwareHeapBackend final : public MemoryBackend {
 public:
  SoftwareHeapBackend(std::uint64_t base, std::uint64_t size,
                      const ServiceCosts& costs);

  [[nodiscard]] std::string name() const override { return "malloc/free"; }
  MemResult alloc(PeId pe, std::uint64_t bytes, sim::Cycles now) override;
  MemResult free(PeId pe, std::uint64_t addr, sim::Cycles now) override;
  /// Software emulation: a region table over the shared heap (all PEs
  /// already see one address space; "ro" is advisory only).
  MemResult alloc_shared(PeId pe, std::size_t region, std::uint64_t bytes,
                         bool writable, sim::Cycles now) override;
  [[nodiscard]] sim::Cycles total_mgmt_cycles() const override {
    return total_;
  }
  [[nodiscard]] std::uint64_t call_count() const override { return calls_; }
  [[nodiscard]] std::uint64_t bytes_in_use() const override {
    return heap_.live_bytes();
  }

  [[nodiscard]] mem::SoftwareHeap& heap() { return heap_; }

 private:
  mem::SoftwareHeap heap_;
  ServiceCosts costs_;
  sim::Cycles total_ = 0;
  std::uint64_t calls_ = 0;
  sim::Cycles heap_lock_until_ = 0;  ///< the shared heap is one lock domain
  struct Region {
    std::uint64_t addr;
    std::uint32_t refs;
  };
  std::map<std::size_t, Region> regions_;
  std::map<std::uint64_t, std::size_t> region_of_addr_;

  /// One call under the heap lock: wait for the lock from `now`, hold it
  /// for the wrapper plus `work`, and charge both to the PE and the
  /// backend's totals (the software twin of bus::unit_round_trip).
  /// Returns the PE's cycles.
  sim::Cycles locked_call(sim::Cycles now, sim::Cycles work);
};

/// SoCDMMU-backed allocation (Table 12).
class SocdmmuBackend final : public MemoryBackend {
 public:
  SocdmmuBackend(hw::SocdmmuConfig cfg, const ServiceCosts& costs,
                 bus::SharedBus* bus);

  [[nodiscard]] std::string name() const override { return "SoCDMMU"; }
  MemResult alloc(PeId pe, std::uint64_t bytes, sim::Cycles now) override;
  MemResult free(PeId pe, std::uint64_t addr, sim::Cycles now) override;
  MemResult alloc_shared(PeId pe, std::size_t region, std::uint64_t bytes,
                         bool writable, sim::Cycles now) override;
  [[nodiscard]] sim::Cycles total_mgmt_cycles() const override {
    return total_;
  }
  [[nodiscard]] std::uint64_t call_count() const override { return calls_; }
  [[nodiscard]] std::uint64_t bytes_in_use() const override;
  void attach_observer(obs::Observer* o) override {
    if (o != nullptr) dmmu_.attach_metrics(o->metrics);
  }

  [[nodiscard]] hw::Socdmmu& unit() { return dmmu_; }

 private:
  hw::Socdmmu dmmu_;
  ServiceCosts costs_;
  bus::SharedBus* bus_;
  sim::Cycles total_ = 0;
  std::uint64_t calls_ = 0;
  sim::Cycles unit_busy_until_ = 0;
};

}  // namespace delta::rtos

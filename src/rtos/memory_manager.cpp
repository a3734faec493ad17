#include "rtos/memory_manager.h"

#include <algorithm>

namespace delta::rtos {

// ------------------------------------------------------ SoftwareHeapBackend

SoftwareHeapBackend::SoftwareHeapBackend(std::uint64_t base,
                                         std::uint64_t size,
                                         const ServiceCosts& costs)
    : heap_(base, size, costs.software), costs_(costs) {}

sim::Cycles SoftwareHeapBackend::locked_call(sim::Cycles now,
                                             sim::Cycles work) {
  // The shared heap serializes callers behind its lock.
  const sim::Cycles start = std::max(now, heap_lock_until_);
  const sim::Cycles body = costs_.mem_wrapper_sw + work;
  heap_lock_until_ = start + body;
  total_ += body;
  ++calls_;
  return (start - now) + body;
}

MemResult SoftwareHeapBackend::alloc(PeId, std::uint64_t bytes,
                                     sim::Cycles now) {
  const mem::HeapCall c = heap_.malloc(bytes);
  MemResult out;
  out.ok = c.ok;
  out.addr = c.addr;
  out.pe_cycles = locked_call(now, c.cycles);
  return out;
}

MemResult SoftwareHeapBackend::free(PeId, std::uint64_t addr,
                                    sim::Cycles now) {
  // Shared regions release their backing memory on the last detach.
  const auto rit = region_of_addr_.find(addr);
  if (rit != region_of_addr_.end()) {
    Region& reg = regions_.at(rit->second);
    if (--reg.refs > 0) {
      MemResult out;
      out.ok = true;
      out.pe_cycles = locked_call(now, 30);
      return out;
    }
    regions_.erase(rit->second);
    region_of_addr_.erase(rit);
  }
  const mem::HeapCall c = heap_.free(addr);
  MemResult out;
  out.ok = c.ok;
  out.pe_cycles = locked_call(now, c.cycles);
  return out;
}

MemResult SoftwareHeapBackend::alloc_shared(PeId pe, std::size_t region,
                                            std::uint64_t bytes,
                                            bool writable, sim::Cycles now) {
  (void)writable;  // no protection hardware to program
  const auto it = regions_.find(region);
  if (it != regions_.end()) {
    ++it->second.refs;
    MemResult out;
    out.ok = true;
    out.addr = it->second.addr;
    // Attach is a table lookup under the heap lock.
    out.pe_cycles = locked_call(now, 40);
    return out;
  }
  MemResult out = alloc(pe, bytes, now);
  if (out.ok) {
    regions_[region] = Region{out.addr, 1};
    region_of_addr_[out.addr] = region;
  }
  return out;
}

// ---------------------------------------------------------- SocdmmuBackend

SocdmmuBackend::SocdmmuBackend(hw::SocdmmuConfig cfg,
                               const ServiceCosts& costs,
                               bus::SharedBus* bus)
    : dmmu_(cfg), costs_(costs), bus_(bus) {}

MemResult SocdmmuBackend::alloc(PeId pe, std::uint64_t bytes,
                                sim::Cycles now) {
  const hw::DmmuAlloc a = dmmu_.alloc(pe, bytes);
  MemResult out;
  out.ok = a.ok;
  out.addr = a.virtual_addr;
  const sim::Cycles body =
      costs_.mem_wrapper_hw +
      bus::unit_round_trip(bus_, pe, now, a.cycles, unit_busy_until_);
  out.pe_cycles = body;
  total_ += body;
  ++calls_;
  return out;
}

MemResult SocdmmuBackend::alloc_shared(PeId pe, std::size_t region,
                                       std::uint64_t bytes, bool writable,
                                       sim::Cycles now) {
  const hw::DmmuAlloc a = dmmu_.alloc_shared(
      pe, region, bytes,
      writable ? hw::DmmuMode::kSharedRw : hw::DmmuMode::kSharedRo);
  MemResult out;
  out.ok = a.ok;
  out.addr = a.virtual_addr;
  const sim::Cycles body =
      costs_.mem_wrapper_hw +
      bus::unit_round_trip(bus_, pe, now, a.cycles, unit_busy_until_);
  out.pe_cycles = body;
  total_ += body;
  ++calls_;
  return out;
}

MemResult SocdmmuBackend::free(PeId pe, std::uint64_t addr, sim::Cycles now) {
  const auto cycles = dmmu_.dealloc(pe, addr);
  MemResult out;
  out.ok = cycles.has_value();
  const sim::Cycles unit = cycles.value_or(dmmu_.config().dealloc_cycles);
  const sim::Cycles body =
      costs_.mem_wrapper_hw +
      bus::unit_round_trip(bus_, pe, now, unit, unit_busy_until_);
  out.pe_cycles = body;
  total_ += body;
  ++calls_;
  return out;
}

std::uint64_t SocdmmuBackend::bytes_in_use() const {
  return static_cast<std::uint64_t>(dmmu_.used_blocks()) *
         dmmu_.config().block_bytes;
}

}  // namespace delta::rtos

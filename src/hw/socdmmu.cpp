#include "hw/socdmmu.h"

#include <algorithm>
#include <stdexcept>

namespace delta::hw {

Socdmmu::Socdmmu(SocdmmuConfig cfg)
    : cfg_(cfg),
      used_(cfg.total_blocks, 0),
      free_count_(cfg.total_blocks),
      next_vaddr_(cfg.pe_count, 0) {
  if (cfg.total_blocks == 0 || cfg.block_bytes == 0 || cfg.pe_count == 0)
    throw std::invalid_argument("Socdmmu: invalid configuration");
  // Each PE gets its own virtual window so translations are unambiguous.
  for (std::size_t pe = 0; pe < cfg_.pe_count; ++pe)
    next_vaddr_[pe] = (pe + 1) * 0x4000'0000ULL;
}

std::optional<std::size_t> Socdmmu::find_run(std::size_t blocks) const {
  std::size_t run = 0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    run = used_[i] ? 0 : run + 1;
    if (run == blocks) return i + 1 - blocks;
  }
  return std::nullopt;
}

std::size_t Socdmmu::blocks_for(std::size_t bytes) const {
  // Divide before rounding up: bytes + block_bytes - 1 wraps for sizes
  // near 2^64 and would ask for 0 blocks. A size beyond the unit comes
  // out larger than total_blocks, which find_run() never satisfies, so
  // it fails like an exhausted request.
  return bytes / cfg_.block_bytes + (bytes % cfg_.block_bytes != 0 ? 1 : 0);
}

DmmuAlloc Socdmmu::alloc(std::size_t pe, std::size_t bytes) {
  const DmmuAlloc out = alloc_impl(pe, bytes);
  note_alloc(out);
  return out;
}

DmmuAlloc Socdmmu::alloc_impl(std::size_t pe, std::size_t bytes) {
  DmmuAlloc out;
  out.cycles = cfg_.alloc_cycles;
  if (pe >= cfg_.pe_count || bytes == 0) return out;
  const std::size_t blocks = blocks_for(bytes);
  const auto first = find_run(blocks);
  if (!first) return out;  // command completes with an error status
  for (std::size_t b = *first; b < *first + blocks; ++b) used_[b] = 1;
  free_count_ -= blocks;

  out.ok = true;
  out.blocks = blocks;
  out.physical_addr = static_cast<std::uint64_t>(*first) * cfg_.block_bytes;
  out.virtual_addr = next_vaddr_[pe];
  next_vaddr_[pe] += static_cast<std::uint64_t>(blocks) * cfg_.block_bytes;
  mappings_.push_back(Mapping{pe, out.virtual_addr, *first, blocks,
                              DmmuMode::kExclusive,
                              static_cast<std::size_t>(-1)});
  return out;
}

const Socdmmu::Mapping* Socdmmu::find_region(std::size_t region) const {
  for (const Mapping& m : mappings_)
    if (m.region == region) return &m;
  return nullptr;
}

DmmuAlloc Socdmmu::attach(std::size_t pe, const Mapping& base,
                          DmmuMode mode) {
  DmmuAlloc out;
  out.cycles = cfg_.alloc_cycles;
  // One mapping per (pe, region).
  for (const Mapping& m : mappings_)
    if (m.region == base.region && m.pe == pe) return out;
  out.ok = true;
  out.blocks = base.blocks;
  out.physical_addr =
      static_cast<std::uint64_t>(base.first_block) * cfg_.block_bytes;
  out.virtual_addr = next_vaddr_[pe];
  next_vaddr_[pe] +=
      static_cast<std::uint64_t>(base.blocks) * cfg_.block_bytes;
  mappings_.push_back(Mapping{pe, out.virtual_addr, base.first_block,
                              base.blocks, mode, base.region});
  return out;
}

DmmuAlloc Socdmmu::alloc_shared(std::size_t pe, std::size_t region,
                                std::size_t bytes, DmmuMode mode) {
  const DmmuAlloc out = alloc_shared_impl(pe, region, bytes, mode);
  note_alloc(out);
  return out;
}

DmmuAlloc Socdmmu::alloc_shared_impl(std::size_t pe, std::size_t region,
                                     std::size_t bytes, DmmuMode mode) {
  DmmuAlloc out;
  out.cycles = cfg_.alloc_cycles;
  if (pe >= cfg_.pe_count || mode == DmmuMode::kExclusive) return out;

  if (const Mapping* base = find_region(region)) {
    return attach(pe, *base, mode);
  }
  // Region does not exist: G_alloc_ro cannot create one.
  if (mode == DmmuMode::kSharedRo || bytes == 0) return out;
  const std::size_t blocks = blocks_for(bytes);
  const auto first = find_run(blocks);
  if (!first) return out;
  for (std::size_t b = *first; b < *first + blocks; ++b) used_[b] = 1;
  free_count_ -= blocks;

  out.ok = true;
  out.blocks = blocks;
  out.physical_addr = static_cast<std::uint64_t>(*first) * cfg_.block_bytes;
  out.virtual_addr = next_vaddr_[pe];
  next_vaddr_[pe] += static_cast<std::uint64_t>(blocks) * cfg_.block_bytes;
  mappings_.push_back(
      Mapping{pe, out.virtual_addr, *first, blocks, mode, region});
  return out;
}

bool Socdmmu::writable(std::size_t pe, std::uint64_t vaddr) const {
  for (const Mapping& m : mappings_) {
    const std::uint64_t size =
        static_cast<std::uint64_t>(m.blocks) * cfg_.block_bytes;
    if (m.pe == pe && vaddr >= m.vaddr && vaddr < m.vaddr + size)
      return m.mode != DmmuMode::kSharedRo;
  }
  return false;
}

std::optional<sim::Cycles> Socdmmu::dealloc(std::size_t pe,
                                            std::uint64_t vaddr) {
  auto it = std::find_if(mappings_.begin(), mappings_.end(),
                         [&](const Mapping& m) {
                           return m.pe == pe && m.vaddr == vaddr;
                         });
  if (it == mappings_.end()) return std::nullopt;
  const Mapping gone = *it;
  mappings_.erase(it);
  // Physical blocks are reclaimed when no mapping references them
  // (immediately for exclusive allocations, at last detach for shared).
  const bool still_mapped = std::any_of(
      mappings_.begin(), mappings_.end(), [&](const Mapping& m) {
        return m.first_block == gone.first_block;
      });
  if (!still_mapped) {
    for (std::size_t b = gone.first_block;
         b < gone.first_block + gone.blocks; ++b)
      used_[b] = 0;
    free_count_ += gone.blocks;
  }
  if (ctr_deallocs_ != nullptr) ctr_deallocs_->add();
  return cfg_.dealloc_cycles;
}

void Socdmmu::attach_metrics(obs::MetricsRegistry& m) {
  ctr_allocs_ = &m.counter("socdmmu.allocs");
  ctr_alloc_failures_ = &m.counter("socdmmu.alloc_failures");
  ctr_deallocs_ = &m.counter("socdmmu.deallocs");
}

void Socdmmu::note_alloc(const DmmuAlloc& out) {
  if (ctr_allocs_ == nullptr) return;
  ctr_allocs_->add();
  if (!out.ok) ctr_alloc_failures_->add();
}

std::optional<std::uint64_t> Socdmmu::translate(std::size_t pe,
                                                std::uint64_t vaddr) const {
  for (const Mapping& m : mappings_) {
    const std::uint64_t size =
        static_cast<std::uint64_t>(m.blocks) * cfg_.block_bytes;
    if (m.pe == pe && vaddr >= m.vaddr && vaddr < m.vaddr + size)
      return static_cast<std::uint64_t>(m.first_block) * cfg_.block_bytes +
             (vaddr - m.vaddr);
  }
  return std::nullopt;
}

}  // namespace delta::hw

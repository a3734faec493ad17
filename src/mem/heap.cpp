#include "mem/heap.h"

#include <algorithm>
#include <stdexcept>

namespace delta::mem {

SoftwareHeap::SoftwareHeap(std::uint64_t base, std::uint64_t size,
                           sim::SoftwareCostModel model,
                           std::uint64_t lock_overhead_ops)
    : base_(base), size_(size), model_(model), lock_ops_(lock_overhead_ops) {
  if (size <= kHeader)
    throw std::invalid_argument("SoftwareHeap: arena too small");
  blocks_.push_back(Block{base_, size_, true});
  free_.push_back(base_);
}

SoftwareHeap::BlockIt SoftwareHeap::find(std::uint64_t addr) {
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), addr,
      [](const Block& b, std::uint64_t a) { return b.addr < a; });
  return it != blocks_.end() && it->addr == addr ? it : blocks_.end();
}

sim::Cycles SoftwareHeap::settle(sim::OpMeter& m) {
  // Heap lock + prologue/epilogue: mostly ALU/branch plus a couple of
  // shared-memory accesses for the lock word itself.
  m.loads += 2;
  m.stores += 2;
  m.alu += lock_ops_ / 2;
  m.branches += lock_ops_ / 2;
  total_ += m;
  const sim::Cycles c = model_.cycles(m);
  total_cycles_ += c;
  return c;
}

HeapCall SoftwareHeap::malloc(std::uint64_t bytes) {
  sim::OpMeter m;
  HeapCall out;
  if (bytes == 0) {
    out.cycles = settle(m);
    return out;
  }
  // Rounding a size near 2^64 up would wrap it to a small request, so a
  // size beyond the largest aligned payload the arena holds is caught
  // first. It fails like an exhausted request: the same walk, charged
  // the same.
  const bool fits = bytes <= (size_ - kHeader) / kAlign * kAlign;
  const std::uint64_t need =
      kHeader + ((bytes + kAlign - 1) / kAlign) * kAlign;

  // Address-ordered first fit over the free list. Each probe reads the
  // block header (size+flags) and the list link.
  std::size_t pick = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    m.loads += 3;
    m.branches += 1;
    m.alu += 1;
    if (fits && find(free_[i])->size >= need) {
      pick = i;
      break;
    }
  }
  if (pick == free_.size()) {
    out.cycles = settle(m);  // exhausted
    return out;
  }

  const std::uint64_t addr = free_[pick];
  const BlockIt it = find(addr);
  const std::uint64_t have = it->size;
  free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
  m.stores += 2;  // unlink from the free list

  std::uint64_t taken = have;
  if (have >= need + kHeader + kAlign) {
    // Split: write both boundary tags.
    taken = need;
    *it = Block{addr, need, false};
    const std::uint64_t rest = addr + need;
    blocks_.insert(it + 1, Block{rest, have - need, true});
    // Address-ordered insert of the remainder.
    auto pos = std::lower_bound(free_.begin(), free_.end(), rest);
    // The insertion walk is part of the allocator's cost.
    m.loads += static_cast<std::uint64_t>(pos - free_.begin());
    m.branches += static_cast<std::uint64_t>(pos - free_.begin());
    free_.insert(pos, rest);
    m.stores += 4;
    m.alu += 4;
  } else {
    it->free = false;
    m.stores += 1;
  }

  ++live_blocks_;
  live_bytes_ += taken - kHeader;
  out.ok = true;
  out.addr = addr + kHeader;
  out.cycles = settle(m);
  return out;
}

HeapCall SoftwareHeap::free(std::uint64_t addr) {
  sim::OpMeter m;
  HeapCall out;
  const std::uint64_t block_addr = addr - kHeader;
  const BlockIt it = find(block_addr);
  m.loads += 2;  // read boundary tag
  m.branches += 2;
  if (it == blocks_.end() || it->free) {
    out.cycles = settle(m);
    return out;  // invalid free
  }

  live_bytes_ -= it->size - kHeader;
  --live_blocks_;
  it->free = true;
  m.stores += 1;

  // Coalesce with successor (boundary-tag check: O(1)).
  const BlockIt next = it + 1;
  m.loads += 2;
  m.branches += 1;
  if (next != blocks_.end() && next->free) {
    const std::uint64_t next_addr = next->addr;
    it->size += next->size;
    blocks_.erase(next);  // `it` sits before it and stays valid
    auto pos = std::lower_bound(free_.begin(), free_.end(), next_addr);
    m.loads += static_cast<std::uint64_t>(pos - free_.begin());
    free_.erase(pos);
    m.stores += 3;
    m.alu += 2;
  }
  // Coalesce with predecessor.
  m.loads += 2;
  m.branches += 1;
  if (it != blocks_.begin()) {
    const BlockIt prev = it - 1;
    if (prev->free && prev->addr + prev->size == it->addr) {
      prev->size += it->size;
      blocks_.erase(it);
      m.stores += 3;
      m.alu += 2;
      // The predecessor is already on the free list; nothing to insert.
      out.ok = true;
      out.cycles = settle(m);
      return out;
    }
  }

  // Insert into the address-ordered free list.
  auto pos = std::lower_bound(free_.begin(), free_.end(), it->addr);
  m.loads += static_cast<std::uint64_t>(pos - free_.begin());
  m.branches += static_cast<std::uint64_t>(pos - free_.begin());
  free_.insert(pos, it->addr);
  m.stores += 2;
  out.ok = true;
  out.cycles = settle(m);
  return out;
}

std::uint64_t SoftwareHeap::free_bytes() const {
  std::uint64_t total = 0;
  for (const Block& b : blocks_)
    if (b.free) total += b.size;
  return total;
}

bool SoftwareHeap::validate() const {
  // Blocks tile the arena.
  std::uint64_t cursor = base_;
  for (const Block& b : blocks_) {
    if (b.addr != cursor || b.size == 0) return false;
    cursor += b.size;
  }
  if (cursor != base_ + size_) return false;
  // Free list is sorted, unique, and matches the free flags.
  if (!std::is_sorted(free_.begin(), free_.end())) return false;
  std::size_t free_count = 0;
  for (const Block& b : blocks_) {
    if (!b.free) continue;
    ++free_count;
    if (!std::binary_search(free_.begin(), free_.end(), b.addr)) return false;
  }
  if (free_count != free_.size()) return false;
  // Fully coalesced: no two adjacent free blocks.
  for (std::size_t i = 1; i < blocks_.size(); ++i)
    if (blocks_[i - 1].free && blocks_[i].free) return false;
  return true;
}

}  // namespace delta::mem

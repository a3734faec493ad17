// Software heap allocator — the conventional malloc()/free() baseline.
//
// Tables 11/12 of the paper compare SPLASH-2 kernels using glibc
// malloc/free against the SoCDMMU. This is a faithful software baseline:
// an address-ordered first-fit free list with boundary-tag coalescing —
// the classic dlmalloc-era structure glibc grew out of.
// Every list walk, split and coalesce is metered (sim::OpMeter), and a
// global heap lock (the RTOS shared heap is one lock domain) adds the
// fixed per-call kernel overhead. That is what makes software allocation
// slow and *variable*, versus the SoCDMMU's fixed 3-4 cycle commands.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cost_model.h"

namespace delta::mem {

/// Result of one allocator call.
struct HeapCall {
  bool ok = false;
  std::uint64_t addr = 0;      ///< payload address (allocations)
  sim::Cycles cycles = 0;      ///< modeled software time for this call
};

/// The instrumented allocator.
class SoftwareHeap {
 public:
  /// Manages [base, base+size). `model` maps operation counts to cycles;
  /// `lock_overhead_ops` models acquiring/releasing the heap lock and the
  /// allocator function prologue (counted as ALU+branch work).
  SoftwareHeap(std::uint64_t base, std::uint64_t size,
               sim::SoftwareCostModel model = {},
               std::uint64_t lock_overhead_ops = 210);

  HeapCall malloc(std::uint64_t bytes);
  HeapCall free(std::uint64_t addr);

  [[nodiscard]] std::uint64_t live_blocks() const { return live_blocks_; }
  [[nodiscard]] std::uint64_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::uint64_t free_bytes() const;
  [[nodiscard]] std::size_t free_list_length() const { return free_.size(); }

  /// Total metered operations/cycles since construction (Table 11's
  /// "memory management time" column is the cycle sum over all calls).
  [[nodiscard]] const sim::OpMeter& total_meter() const { return total_; }
  [[nodiscard]] sim::Cycles total_cycles() const { return total_cycles_; }

  /// Internal consistency check: blocks tile the arena exactly, free list
  /// matches free blocks, no two adjacent free blocks (fully coalesced).
  [[nodiscard]] bool validate() const;

 private:
  struct Block {
    std::uint64_t addr;
    std::uint64_t size;  ///< including header
    bool free;
  };
  using BlockIt = std::vector<Block>::iterator;

  static constexpr std::uint64_t kHeader = 16;  ///< boundary tag bytes
  static constexpr std::uint64_t kAlign = 8;

  std::uint64_t base_, size_;
  sim::SoftwareCostModel model_;
  std::uint64_t lock_ops_;
  /// The block table, address-sorted and tiling the arena. A vector keeps
  /// its capacity, so a warm split or coalesce allocates nothing on the
  /// host; the meter charges the modelled boundary-tag list, never this
  /// container.
  std::vector<Block> blocks_;
  std::vector<std::uint64_t> free_;            ///< free block addresses
  std::uint64_t live_blocks_ = 0, live_bytes_ = 0;
  sim::OpMeter total_;
  sim::Cycles total_cycles_ = 0;

  sim::Cycles settle(sim::OpMeter& m);
  /// The block at `addr`, or blocks_.end() when no block starts there.
  [[nodiscard]] BlockIt find(std::uint64_t addr);
};

}  // namespace delta::mem

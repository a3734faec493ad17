// SoC Dynamic Memory Management Unit (SoCDMMU) — hardware model (§2.3.2).
//
// The SoCDMMU manages the global L2 memory as fixed-size G_blocks. A PE
// writes an allocate/deallocate command to the unit's memory-mapped port
// and reads back the result a fixed, deterministic number of cycles later
// — this determinism (vs. the variable-time software heap walk of
// malloc/free) is the entire point of the unit (Tables 11/12).
//
// The unit also performs PE-address (virtual) to physical translation for
// the allocated blocks; we model the translation table and check it in
// tests, while the workload models only consume the timing + addresses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "sim/sim_time.h"

namespace delta::hw {

/// Allocation sharing mode (the SoCDMMU's G_alloc_ex / G_alloc_rw /
/// G_alloc_ro command variants).
enum class DmmuMode : std::uint8_t {
  kExclusive,  ///< G_alloc_ex: sole owner, read/write
  kSharedRw,   ///< G_alloc_rw: allocate-or-attach, read/write
  kSharedRo,   ///< G_alloc_ro: attach read-only to an existing region
};

/// Result of a G_alloc command.
struct DmmuAlloc {
  bool ok = false;
  std::uint64_t virtual_addr = 0;   ///< PE-visible address
  std::uint64_t physical_addr = 0;  ///< L2 address of the first block
  std::size_t blocks = 0;
  sim::Cycles cycles = 0;           ///< deterministic command time
};

/// Configuration (the parameterized SoCDMMU generator's inputs, §2.2).
struct SocdmmuConfig {
  std::size_t total_blocks = 256;        ///< G_blocks in L2
  std::size_t block_bytes = 64 * 1024;   ///< 256 x 64 KB = 16 MB (§5.1)
  std::size_t pe_count = 4;
  /// Fixed command execution time: decode + bitmap scan (hardware
  /// priority encoder) + table update. The paper reports 4 cycles for
  /// G_alloc_ex; reads/writes of the port are separate bus transactions.
  sim::Cycles alloc_cycles = 4;
  sim::Cycles dealloc_cycles = 3;
};

/// The memory-management unit.
class Socdmmu {
 public:
  explicit Socdmmu(SocdmmuConfig cfg);

  [[nodiscard]] const SocdmmuConfig& config() const { return cfg_; }

  /// Allocate `bytes` (rounded up to whole blocks) exclusively for `pe`.
  DmmuAlloc alloc(std::size_t pe, std::size_t bytes);

  /// G_alloc_rw/G_alloc_ro: shared regions are named; the first G_alloc_rw
  /// of a name creates the region, later calls attach another PE's
  /// mapping. G_alloc_ro attaches read-only and requires the region to
  /// exist. Region ids are small integers (the unit's region table).
  DmmuAlloc alloc_shared(std::size_t pe, std::size_t region,
                         std::size_t bytes, DmmuMode mode);

  /// Whether `pe` may write through `vaddr` (exclusive and rw mappings
  /// yes; ro mappings no; unmapped no).
  [[nodiscard]] bool writable(std::size_t pe, std::uint64_t vaddr) const;

  /// Deallocate a previous allocation by its virtual address. For shared
  /// regions this detaches the caller's mapping; the physical blocks are
  /// reclaimed when the last mapping goes.
  /// Returns the command time; std::nullopt if the address is unknown.
  std::optional<sim::Cycles> dealloc(std::size_t pe, std::uint64_t vaddr);

  /// Translate a PE-visible address to physical (as the unit's address
  /// converter does on every bus access). std::nullopt if unmapped.
  [[nodiscard]] std::optional<std::uint64_t> translate(
      std::size_t pe, std::uint64_t vaddr) const;

  [[nodiscard]] std::size_t free_blocks() const { return free_count_; }
  [[nodiscard]] std::size_t used_blocks() const {
    return cfg_.total_blocks - free_count_;
  }

  /// Register "socdmmu.*" counters (allocs/alloc_failures/deallocs).
  void attach_metrics(obs::MetricsRegistry& m);

 private:
  DmmuAlloc alloc_impl(std::size_t pe, std::size_t bytes);
  DmmuAlloc alloc_shared_impl(std::size_t pe, std::size_t region,
                              std::size_t bytes, DmmuMode mode);
  void note_alloc(const DmmuAlloc& out);

  struct Mapping {
    std::size_t pe;
    std::uint64_t vaddr;
    std::size_t first_block;
    std::size_t blocks;
    DmmuMode mode = DmmuMode::kExclusive;
    std::size_t region = static_cast<std::size_t>(-1);  ///< shared id
  };

  SocdmmuConfig cfg_;
  std::vector<std::uint8_t> used_;  ///< block bitmap
  std::size_t free_count_;
  std::vector<Mapping> mappings_;
  std::vector<std::uint64_t> next_vaddr_;  ///< per-PE virtual bump pointer

  /// Whole blocks covering `bytes`, without overflow.
  [[nodiscard]] std::size_t blocks_for(std::size_t bytes) const;
  /// First-fit run of `blocks` free blocks (hardware priority encoder).
  std::optional<std::size_t> find_run(std::size_t blocks) const;

  /// Existing mapping of a shared region, if any.
  [[nodiscard]] const Mapping* find_region(std::size_t region) const;
  DmmuAlloc attach(std::size_t pe, const Mapping& base, DmmuMode mode);

  obs::Counter* ctr_allocs_ = nullptr;
  obs::Counter* ctr_alloc_failures_ = nullptr;
  obs::Counter* ctr_deallocs_ = nullptr;
};

}  // namespace delta::hw

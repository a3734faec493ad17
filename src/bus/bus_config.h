// Hierarchical bus-system configuration (paper §2.2, Figs. 4-6).
//
// The delta framework GUI collects: global address/data bus widths, the
// number of Bus Access Nodes (BANs, i.e. bus subsystems), and per-BAN CPU
// type, non-CPU masters and memory configuration. This is the
// programmatic equivalent; validate() enforces the constraints the GUI
// imposes and describe() renders the same summary the pop-up windows
// show. The Verilog top generator (soc/archi_gen) consumes the result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace delta::bus {

enum class MemoryType : std::uint8_t { kSram, kDram, kSdram };

const char* memory_type_name(MemoryType t);

/// One memory block inside a BAN (Fig. 5).
struct MemoryConfig {
  MemoryType type = MemoryType::kSram;
  unsigned address_width = 21;  ///< bits
  unsigned data_width = 64;     ///< bits
};

/// One bus subsystem / Bus Access Node (Fig. 6).
struct BanConfig {
  std::string cpu_type = "MPC755";  ///< "MPC755", "ARM920", "None", ...
  std::size_t cpu_count = 1;
  std::string non_cpu_type = "None";
  std::vector<MemoryConfig> global_memories;
  std::vector<MemoryConfig> local_memories;
};

/// The whole hierarchical bus system (Fig. 4).
struct BusSystemConfig {
  unsigned address_bus_width = 32;
  unsigned data_bus_width = 64;
  std::vector<BanConfig> bans;

  /// Total CPU masters across all BANs.
  [[nodiscard]] std::size_t total_cpus() const;

  /// Throws std::invalid_argument describing the first violated
  /// constraint (widths must be powers of two within range, at least one
  /// BAN, at least one master overall, memory widths <= bus width).
  void validate() const;

  /// Human-readable summary mirroring the Figs. 4-6 dialog contents.
  [[nodiscard]] std::string describe() const;

  /// The paper's base system (§5.1): one BAN, four MPC755s, one global
  /// SRAM bank, 32-bit addresses, 64-bit data.
  static BusSystemConfig base_mpsoc();
};

}  // namespace delta::bus

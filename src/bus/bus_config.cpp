#include "bus/bus_config.h"

#include <bit>
#include <sstream>
#include <stdexcept>

namespace delta::bus {

const char* memory_type_name(MemoryType t) {
  switch (t) {
    case MemoryType::kSram: return "SRAM";
    case MemoryType::kDram: return "DRAM";
    case MemoryType::kSdram: return "SDRAM";
  }
  return "?";
}

std::size_t BusSystemConfig::total_cpus() const {
  std::size_t n = 0;
  for (const BanConfig& b : bans)
    if (b.cpu_type != "None") n += b.cpu_count;
  return n;
}

namespace {
bool valid_width(unsigned w, unsigned lo, unsigned hi) {
  return w >= lo && w <= hi && std::has_single_bit(w);
}
}  // namespace

void BusSystemConfig::validate() const {
  if (!valid_width(address_bus_width, 16, 64))
    throw std::invalid_argument(
        "address bus width must be a power of two in [16, 64]");
  if (!valid_width(data_bus_width, 8, 128))
    throw std::invalid_argument(
        "data bus width must be a power of two in [8, 128]");
  if (bans.empty())
    throw std::invalid_argument("bus system needs at least one BAN");
  if (total_cpus() == 0)
    throw std::invalid_argument("bus system needs at least one CPU master");
  for (std::size_t i = 0; i < bans.size(); ++i) {
    const BanConfig& b = bans[i];
    if (b.cpu_type != "None" && b.cpu_count == 0)
      throw std::invalid_argument("BAN " + std::to_string(i + 1) +
                                  ": cpu_count is zero for " + b.cpu_type);
    for (const MemoryConfig& m : b.global_memories) {
      if (m.data_width > data_bus_width)
        throw std::invalid_argument(
            "BAN " + std::to_string(i + 1) +
            ": global memory wider than the data bus");
      if (m.address_width == 0 || m.address_width > address_bus_width)
        throw std::invalid_argument("BAN " + std::to_string(i + 1) +
                                    ": bad memory address width");
    }
  }
}

std::string BusSystemConfig::describe() const {
  std::ostringstream os;
  os << "Custom BUS Generation\n";
  os << "  Number of BANs: " << bans.size() << "\n";
  os << "  Address bus width: " << address_bus_width << "\n";
  os << "  Data bus width: " << data_bus_width << "\n";
  for (std::size_t i = 0; i < bans.size(); ++i) {
    const BanConfig& b = bans[i];
    os << "  Bus Subsystem #" << (i + 1) << "\n";
    os << "    CPU type: " << b.cpu_type;
    if (b.cpu_type != "None") os << " x" << b.cpu_count;
    os << "\n";
    os << "    Non-CPU type: " << b.non_cpu_type << "\n";
    os << "    Number of Global Memory: " << b.global_memories.size() << "\n";
    os << "    Number of Local Memory: " << b.local_memories.size() << "\n";
    for (const MemoryConfig& m : b.global_memories)
      os << "      Memory type: " << memory_type_name(m.type)
         << ", address width " << m.address_width << ", data width "
         << m.data_width << "\n";
  }
  return os.str();
}

BusSystemConfig BusSystemConfig::base_mpsoc() {
  BusSystemConfig cfg;
  cfg.address_bus_width = 32;
  cfg.data_bus_width = 64;
  BanConfig ban;
  ban.cpu_type = "MPC755";
  ban.cpu_count = 4;
  ban.non_cpu_type = "None";
  ban.global_memories.push_back(MemoryConfig{MemoryType::kSram, 21, 64});
  cfg.bans.push_back(ban);
  return cfg;
}

}  // namespace delta::bus

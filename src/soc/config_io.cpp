#include "soc/config_io.h"

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace delta::soc {

namespace {

const char* deadlock_key(DeadlockComponent d) {
  switch (d) {
    case DeadlockComponent::kNone: return "none";
    case DeadlockComponent::kPddaSoftware: return "pdda-software";
    case DeadlockComponent::kDdu: return "ddu";
    case DeadlockComponent::kDaaSoftware: return "daa-software";
    case DeadlockComponent::kDau: return "dau";
    case DeadlockComponent::kBankers: return "bankers";
    case DeadlockComponent::kWfgRecovery: return "wfg-recovery";
  }
  return "none";
}

DeadlockComponent parse_deadlock(const std::string& v, int line) {
  if (v == "none") return DeadlockComponent::kNone;
  if (v == "pdda-software") return DeadlockComponent::kPddaSoftware;
  if (v == "ddu") return DeadlockComponent::kDdu;
  if (v == "daa-software") return DeadlockComponent::kDaaSoftware;
  if (v == "dau") return DeadlockComponent::kDau;
  if (v == "bankers") return DeadlockComponent::kBankers;
  if (v == "wfg-recovery") return DeadlockComponent::kWfgRecovery;
  throw std::invalid_argument("config line " + std::to_string(line) +
                              ": unknown deadlock component '" + v + "'");
}

const char* victim_key(rtos::RecoveryPolicy p) {
  switch (p) {
    case rtos::RecoveryPolicy::kNone: return "none";
    case rtos::RecoveryPolicy::kAbortLowestPriority: return "lowest-priority";
    case rtos::RecoveryPolicy::kAbortYoungest: return "youngest";
    case rtos::RecoveryPolicy::kAbortLowestCost: return "lowest-cost";
  }
  return "none";
}

rtos::RecoveryPolicy parse_victim(const std::string& v, int line) {
  if (v == "none") return rtos::RecoveryPolicy::kNone;
  if (v == "lowest-priority")
    return rtos::RecoveryPolicy::kAbortLowestPriority;
  if (v == "youngest") return rtos::RecoveryPolicy::kAbortYoungest;
  if (v == "lowest-cost") return rtos::RecoveryPolicy::kAbortLowestCost;
  throw std::invalid_argument("config line " + std::to_string(line) +
                              ": unknown victim policy '" + v + "'");
}

std::uint64_t parse_u64(const std::string& v, int line);

std::vector<rtos::ResourceId> parse_id_list(const std::string& v, int line) {
  std::vector<rtos::ResourceId> ids;
  std::string item;
  std::istringstream is(v);
  while (std::getline(is, item, ',')) {
    const auto b = item.find_first_not_of(" \t");
    const auto e = item.find_last_not_of(" \t");
    if (b == std::string::npos)
      throw std::invalid_argument("config line " + std::to_string(line) +
                                  ": empty entry in id list '" + v + "'");
    ids.push_back(static_cast<rtos::ResourceId>(
        parse_u64(item.substr(b, e - b + 1), line)));
  }
  return ids;
}

std::uint64_t parse_u64(const std::string& v, int line) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size())
    throw std::invalid_argument("config line " + std::to_string(line) +
                                ": expected a number, got '" + v + "'");
  return out;
}

unsigned parse_unsigned(const std::string& v, int line) {
  const std::uint64_t out = parse_u64(v, line);
  if (out > std::numeric_limits<unsigned>::max())
    throw std::invalid_argument("config line " + std::to_string(line) +
                                ": value '" + v + "' is out of range");
  return static_cast<unsigned>(out);
}

bool parse_bool(const std::string& v, int line) {
  if (v == "true" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "no" || v == "0") return false;
  throw std::invalid_argument("config line " + std::to_string(line) +
                              ": expected a boolean, got '" + v + "'");
}

}  // namespace

std::string write_config(const DeltaConfig& cfg) {
  std::ostringstream os;
  os << "# delta framework configuration\n";
  os << "cpu_type = " << cfg.cpu_type << "\n";
  os << "pe_count = " << cfg.pe_count << "\n";
  os << "task_count = " << cfg.task_count << "\n";
  os << "resource_count = " << cfg.resource_count << "\n";
  os << "deadlock = " << deadlock_key(cfg.deadlock) << "\n";
  // Only emitted when sharding is on, so monolithic configs (including
  // every golden-pinned paper geometry) serialize byte-identically to
  // before the key existed.
  if (cfg.deadlock_clusters != 1)
    os << "deadlock_clusters = " << cfg.deadlock_clusters << "\n";
  os << "lock = "
     << (cfg.lock == LockComponent::kSoclc ? "soclc" : "software-pi")
     << "\n";
  os << "memory = "
     << (cfg.memory == MemoryComponent::kSocdmmu ? "socdmmu" : "malloc")
     << "\n";
  os << "soclc.short_locks = " << cfg.soclc.short_locks << "\n";
  os << "soclc.long_locks = " << cfg.soclc.long_locks << "\n";
  os << "socdmmu.total_blocks = " << cfg.socdmmu.total_blocks << "\n";
  os << "socdmmu.block_bytes = " << cfg.socdmmu.block_bytes << "\n";
  os << "bus.address_width = " << cfg.bus.address_bus_width << "\n";
  os << "bus.data_width = " << cfg.bus.data_bus_width << "\n";
  os << "stop_on_deadlock = "
     << (cfg.stop_on_deadlock ? "true" : "false") << "\n";
  // Protocol-zoo keys, emitted only when set so every pre-existing
  // configuration (and its goldens) serializes byte-identically.
  if (cfg.detection_period != 0)
    os << "detection_period = " << cfg.detection_period << "\n";
  if (cfg.recovery != rtos::RecoveryPolicy::kNone)
    os << "victim = " << victim_key(cfg.recovery) << "\n";
  for (std::size_t t = 0; t < cfg.claims.size(); ++t) {
    if (cfg.claims[t].empty()) continue;  // empty = claim-all default
    os << "claims.t" << t << " = ";
    for (std::size_t i = 0; i < cfg.claims[t].size(); ++i)
      os << (i ? "," : "") << cfg.claims[t][i];
    os << "\n";
  }
  return os.str();
}

DeltaConfig read_config(const std::string& text) {
  DeltaConfig cfg;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("config line " + std::to_string(line_no) +
                                  ": expected 'key = value'");
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string{}
                                    : s.substr(b, e - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty())
      throw std::invalid_argument("config line " + std::to_string(line_no) +
                                  ": empty key or value");

    if (key == "cpu_type") {
      cfg.cpu_type = value;
    } else if (key == "pe_count") {
      cfg.pe_count = parse_u64(value, line_no);
    } else if (key == "task_count") {
      cfg.task_count = parse_u64(value, line_no);
    } else if (key == "resource_count") {
      cfg.resource_count = parse_u64(value, line_no);
    } else if (key == "deadlock") {
      cfg.deadlock = parse_deadlock(value, line_no);
    } else if (key == "deadlock_clusters") {
      cfg.deadlock_clusters = parse_u64(value, line_no);
    } else if (key == "lock") {
      if (value == "soclc") cfg.lock = LockComponent::kSoclc;
      else if (value == "software-pi") cfg.lock = LockComponent::kSoftwarePi;
      else
        throw std::invalid_argument("config line " +
                                    std::to_string(line_no) +
                                    ": unknown lock component '" + value +
                                    "'");
    } else if (key == "memory") {
      if (value == "socdmmu") cfg.memory = MemoryComponent::kSocdmmu;
      else if (value == "malloc") cfg.memory = MemoryComponent::kMallocFree;
      else
        throw std::invalid_argument("config line " +
                                    std::to_string(line_no) +
                                    ": unknown memory component '" + value +
                                    "'");
    } else if (key == "soclc.short_locks") {
      cfg.soclc.short_locks = parse_u64(value, line_no);
    } else if (key == "soclc.long_locks") {
      cfg.soclc.long_locks = parse_u64(value, line_no);
    } else if (key == "socdmmu.total_blocks") {
      cfg.socdmmu.total_blocks = parse_u64(value, line_no);
    } else if (key == "socdmmu.block_bytes") {
      cfg.socdmmu.block_bytes = parse_u64(value, line_no);
    } else if (key == "bus.address_width") {
      cfg.bus.address_bus_width = parse_unsigned(value, line_no);
    } else if (key == "bus.data_width") {
      cfg.bus.data_bus_width = parse_unsigned(value, line_no);
    } else if (key == "stop_on_deadlock") {
      cfg.stop_on_deadlock = parse_bool(value, line_no);
    } else if (key == "detection_period") {
      cfg.detection_period = parse_u64(value, line_no);
    } else if (key == "victim") {
      cfg.recovery = parse_victim(value, line_no);
    } else if (key.rfind("claims.t", 0) == 0) {
      const std::size_t t = parse_u64(key.substr(8), line_no);
      if (t >= 4096)
        throw std::invalid_argument("config line " +
                                    std::to_string(line_no) +
                                    ": claims task index out of range");
      if (cfg.claims.size() <= t) cfg.claims.resize(t + 1);
      cfg.claims[t] = parse_id_list(value, line_no);
    } else {
      throw std::invalid_argument("config line " + std::to_string(line_no) +
                                  ": unknown key '" + key + "'");
    }
  }
  return cfg;
}

}  // namespace delta::soc

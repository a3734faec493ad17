// The shared system bus.
//
// Timing model per paper §5.5: "three cycles of the system bus clock
// (including bus arbitration) are needed to access the first word in the
// 16 MB global memory; if the transaction is a burst, the successive
// words are accessed each in one clock cycle."
//
// Arbitration is part of that 3-cycle first word; there is no separate
// arbiter model. Transactions from concurrently active masters serialize
// in the order the simulator submits them: the bus keeps a busy-until
// horizon and each transaction starts at max(request time, horizon).
// Contention wait is accounted per master.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/observer.h"
#include "sim/sim_time.h"

namespace delta::bus {

/// Master index on the bus (PEs first, then DMA-capable devices).
using MasterId = std::size_t;

/// Timing parameters of one bus (the generator's knobs, Figs. 4-6).
struct BusTiming {
  sim::Cycles first_word = 3;   ///< arbitration + address + first data
  sim::Cycles burst_word = 1;   ///< each successive word of a burst
};

/// Completed-transaction descriptor.
struct BusTransaction {
  sim::Cycles start = 0;     ///< when the bus began the transfer
  sim::Cycles complete = 0;  ///< when the last word arrived
  sim::Cycles waited = 0;    ///< queueing delay due to contention
};

/// Serializing shared bus with per-master statistics.
class SharedBus {
 public:
  SharedBus(std::size_t masters, BusTiming timing = {});

  [[nodiscard]] const BusTiming& timing() const { return timing_; }
  [[nodiscard]] std::size_t masters() const { return stats_.size(); }

  /// Perform a transfer of `words` words requested at time `now` by
  /// `master`. Returns start/complete/wait times and advances the busy
  /// horizon. `words` == 0 is invalid.
  BusTransaction transfer(MasterId master, sim::Cycles now,
                          std::size_t words = 1);

  /// Pure timing helper: duration of an uncontended transfer.
  [[nodiscard]] sim::Cycles transfer_cycles(std::size_t words) const;

  /// Earliest time a new transaction could start.
  [[nodiscard]] sim::Cycles busy_until() const { return busy_until_; }

  /// Per-master counters.
  struct MasterStats {
    std::uint64_t transactions = 0;
    std::uint64_t words = 0;
    sim::Cycles wait_cycles = 0;
    sim::Cycles busy_cycles = 0;
  };
  [[nodiscard]] const MasterStats& stats(MasterId m) const {
    return stats_.at(m);
  }
  [[nodiscard]] std::uint64_t total_transactions() const;

  /// Attach an observer; every transfer then bumps "bus.*" counters and,
  /// when the recorder is enabled, records a kBusTransfer event.
  /// The observer must outlive the bus. Pass nullptr to detach.
  void set_observer(obs::Observer* o);

 private:
  BusTiming timing_;
  sim::Cycles busy_until_ = 0;
  std::vector<MasterStats> stats_;

  obs::Observer* obs_ = nullptr;
  // Counters resolved once at attach time: registry entries never move,
  // so the pointers are safe to cache for the registry's lifetime.
  obs::Counter* ctr_transactions_ = nullptr;
  obs::Counter* ctr_words_ = nullptr;
  obs::Counter* ctr_wait_cycles_ = nullptr;
  obs::Counter* ctr_busy_cycles_ = nullptr;
};

/// One command to a memory-mapped hardware unit (DAU, SoCDMMU) from
/// `master` at `now`: a one-word command write, the unit's `unit` cycles
/// (the unit serializes commands: it starts no earlier than
/// `unit_busy_until`, which moves to its end), `pe_residue` cycles the
/// commanding PE then runs in software, and a one-word status read. With
/// no bus each word costs 3 cycles and the unit is not serialized.
/// Returns the cycles from `now` until the status read completes.
sim::Cycles unit_round_trip(SharedBus* bus, MasterId master, sim::Cycles now,
                            sim::Cycles unit, sim::Cycles& unit_busy_until,
                            sim::Cycles pe_residue = 0);

}  // namespace delta::bus

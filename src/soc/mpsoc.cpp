// The assembled MPSoC: backend selection, kernel wiring, engine
// introspection and the (optionally sampled) run loop.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "soc/mpsoc.h"

namespace delta::soc {

namespace {

/// The software heap's arena in global memory: 8 MB at 8 MB.
constexpr std::uint64_t kHeapBase = 0x0080'0000;
constexpr std::uint64_t kHeapBytes = 8ULL * 1024 * 1024;

std::unique_ptr<rtos::LockBackend> make_locks(const MpsocConfig& cfg) {
  switch (cfg.lock) {
    case LockComponent::kSoftwarePi:
      // Same short/long partition as the SoCLC would use, so spin-mode
      // comparisons are apples to apples.
      return std::make_unique<rtos::SoftwarePiLockBackend>(
          cfg.soclc.short_locks + cfg.soclc.long_locks, cfg.costs,
          cfg.soclc.short_locks);
    case LockComponent::kSoclc:
      return std::make_unique<rtos::SoclcLockBackend>(cfg.soclc, cfg.costs,
                                                      cfg.lock_ceilings);
  }
  throw std::logic_error("unknown lock component");
}

std::unique_ptr<rtos::MemoryBackend> make_memory(
    const MpsocConfig& cfg, bus::SharedBus* bus) {
  switch (cfg.memory) {
    case MemoryComponent::kMallocFree:
      return std::make_unique<rtos::SoftwareHeapBackend>(kHeapBase,
                                                         kHeapBytes, cfg.costs);
    case MemoryComponent::kSocdmmu: {
      hw::SocdmmuConfig dc = cfg.socdmmu;
      dc.pe_count = cfg.pe_count;
      return std::make_unique<rtos::SocdmmuBackend>(dc, cfg.costs, bus);
    }
  }
  throw std::logic_error("unknown memory component");
}

}  // namespace

Mpsoc::Mpsoc(MpsocConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.pe_count == 0) throw std::invalid_argument("Mpsoc: zero PEs");
  if (cfg_.resources.empty())
    throw std::invalid_argument("Mpsoc: no resources");
  if (cfg_.lock == LockComponent::kSoclc && !cfg_.lock_ceilings.empty() &&
      cfg_.lock_ceilings.size() !=
          cfg_.soclc.short_locks + cfg_.soclc.long_locks)
    throw std::invalid_argument(
        "Mpsoc: lock_ceilings has " +
        std::to_string(cfg_.lock_ceilings.size()) +
        " entries but the SoCLC is configured with " +
        std::to_string(cfg_.soclc.short_locks + cfg_.soclc.long_locks) +
        " locks");
  // Masters: PEs plus one port for the hardware units. The bus keeps
  // its default §5.5 timing (3-cycle first word, 1 per burst word).
  bus_ = std::make_unique<bus::SharedBus>(cfg_.pe_count + 1);

  rtos::KernelConfig kc;
  kc.pe_count = cfg_.pe_count;
  kc.resource_count = cfg_.resources.size();
  kc.max_tasks = cfg_.max_tasks;
  kc.costs = cfg_.costs;
  kc.stop_on_deadlock = cfg_.stop_on_deadlock;
  kc.recovery = cfg_.recovery;
  kc.detection_period = cfg_.detection_period;
  kc.claims = cfg_.claims;
  kc.time_slice = cfg_.time_slice;
  kc.spin_short_locks = cfg_.spin_short_locks;
  kc.trace = cfg_.trace;
  kc.record_transitions = cfg_.record_transitions;
  kc.resource_names.reserve(cfg_.resources.size());
  for (const ResourceSpec& r : cfg_.resources)
    kc.resource_names.push_back(r.name);

  kernel_ = std::make_unique<rtos::Kernel>(
      sim_, *bus_, std::move(kc),
      rtos::make_strategy(
          cfg_.deadlock,
          std::max(cfg_.resources.size(), cfg_.deadlock_unit_resources),
          cfg_.max_tasks, cfg_.costs, bus_.get(), cfg_.pe_count,
          cfg_.deadlock_clusters),
      make_locks(cfg_), make_memory(cfg_, bus_.get()), &obs_);

  if (cfg_.trace_capacity > 0) obs_.trace.enable(cfg_.trace_capacity);
  bus_->set_observer(&obs_);
  if (cfg_.engine_stats) {
    sim_.enable_engine_stats();
    kernel_->enable_engine_counters();
  }
}

rtos::ResourceId Mpsoc::resource(const std::string& name) const {
  for (std::size_t i = 0; i < cfg_.resources.size(); ++i)
    if (cfg_.resources[i].name == name) return i;
  throw std::invalid_argument("unknown resource: " + name);
}

EngineReport Mpsoc::engine_report() const {
  EngineReport r;
  if (!cfg_.engine_stats) return r;
  r.enabled = true;
  r.events_dispatched = sim_.events_dispatched();
  r.queue_footprint_bytes =
      static_cast<std::uint64_t>(sim_.queue_footprint_bytes());
  r.queue = sim_.engine_stats();
  r.kernel = kernel_->engine_counters_snapshot();
  return r;
}

void Mpsoc::stamp_trace_dropped() {
  if (!obs_.trace.enabled()) return;
  obs::Counter& c = obs_.metrics.counter("trace.dropped");
  c.add(obs_.trace.dropped() - c.value());
}

sim::Cycles Mpsoc::run(sim::Cycles limit) {
  kernel_->start();
  if (cfg_.sample_period == 0) {
    const sim::Cycles end = sim_.run(limit);
    stamp_trace_dropped();
    return end;
  }

  std::vector<std::string> tracks;
  for (std::size_t pe = 0; pe < cfg_.pe_count; ++pe)
    tracks.push_back("pe" + std::to_string(pe) + ".busy_cycles");
  tracks.push_back("bus.busy_cycles");
  tracks.push_back("bus.words");
  tracks.push_back("lock.spin_polls");
  tracks.push_back("sched.ready_depth");
  tracks.push_back("mem.heap_bytes");
  series_ = obs::TimeSeries(cfg_.sample_period, std::move(tracks));
  if (cfg_.engine_stats)
    engine_series_ = obs::TimeSeries(
        cfg_.sample_period,
        {"engine.queue_depth", "engine.footprint_bytes"});

  // The per-PE busy slots stay zero until the run is over; the other
  // tracks are probed at each window boundary.
  std::vector<obs::TimeSeries::Sample> samples;
  std::uint64_t prev_bus_busy = 0;
  std::uint64_t prev_bus_words = 0;
  std::uint64_t prev_spins = 0;
  const auto take_sample = [&](sim::Cycles t) {
    std::vector<std::uint64_t> v(cfg_.pe_count, 0);
    std::uint64_t bus_busy = 0;
    std::uint64_t bus_words = 0;
    for (bus::MasterId m = 0; m < bus_->masters(); ++m) {
      bus_busy += bus_->stats(m).busy_cycles;
      bus_words += bus_->stats(m).words;
    }
    v.push_back(bus_busy - prev_bus_busy);
    prev_bus_busy = bus_busy;
    v.push_back(bus_words - prev_bus_words);
    prev_bus_words = bus_words;
    const std::uint64_t spins = obs_.metrics.counter_value("lock.spins");
    v.push_back(spins - prev_spins);
    prev_spins = spins;
    std::uint64_t ready = 0;
    for (rtos::TaskId id = 0; id < kernel_->task_count(); ++id)
      if (kernel_->task(id).state == rtos::TaskState::kReady) ++ready;
    v.push_back(ready);
    v.push_back(kernel_->memory().bytes_in_use());
    samples.push_back({t, std::move(v)});
    if (cfg_.engine_stats)
      engine_series_.append(
          t, {static_cast<std::uint64_t>(sim_.queue_depth()),
              static_cast<std::uint64_t>(sim_.queue_footprint_bytes())});
  };

  // Drive the simulator in period-sized chunks: step() never advances
  // now() past the pending events, so probing between chunks observes
  // the true end-of-window state. The final run() restores the plain
  // "clock ends at the limit" semantics of the unsampled path.
  sim::Cycles next = cfg_.sample_period;
  for (;;) {
    const sim::Cycles until = std::min(next, limit);
    while (sim_.step(until)) {
    }
    if (sim_.idle() || until >= limit) break;
    take_sample(until);
    next += cfg_.sample_period;
  }
  const sim::Cycles end = sim_.run(limit);
  // Close the last (possibly partial) window so delta tracks integrate
  // to the end-of-run totals exactly.
  if (samples.empty() || samples.back().t < end) take_sample(end);

  // Busy cycles: each running span's overlap with each window
  // [t[i-1], t[i]), from the same fold of the phase log that
  // utilization_report() sums.
  for (const obs::PhaseSpan& s :
       obs::fold_phases(kernel_->transitions(), kernel_->task_count(), end)) {
    if (s.phase != obs::TaskPhase::kRunning) continue;
    const rtos::PeId pe = kernel_->task(s.task).pe;
    auto w = std::upper_bound(
        samples.begin(), samples.end(), s.begin,
        [](sim::Cycles at, const obs::TimeSeries::Sample& x) {
          return at < x.t;
        });
    for (sim::Cycles from = s.begin; w != samples.end() && from < s.end;
         ++w) {
      const sim::Cycles to = std::min(s.end, w->t);
      w->values[pe] += to - from;
      from = to;
    }
  }
  for (obs::TimeSeries::Sample& sample : samples)
    series_.append(sample.t, std::move(sample.values));
  stamp_trace_dropped();
  return end;
}

}  // namespace delta::soc

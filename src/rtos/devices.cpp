#include "rtos/devices.h"

#include <algorithm>
#include <stdexcept>

namespace delta::rtos {

DeviceManager::DeviceManager(sim::Simulator& sim, std::size_t devices,
                             std::size_t pe_count, sim::Cycles irq_latency)
    : sim_(sim),
      devices_(devices),
      irq_latency_(irq_latency),
      device_free_at_(devices, 0),
      jobs_(devices, 0),
      busy_(devices, 0),
      masked_(pe_count, 0),
      pending_(pe_count) {
  if (devices == 0 || pe_count == 0)
    throw std::invalid_argument("DeviceManager: empty configuration");
}

sim::Cycles DeviceManager::start_job(ResourceId dev, PeId pe,
                                     sim::Cycles cycles,
                                     sim::SmallFn on_complete) {
  if (dev >= devices_) throw std::invalid_argument("start_job: bad device");
  const sim::Cycles start = std::max(sim_.now(), device_free_at_[dev]);
  const sim::Cycles done = start + cycles;
  device_free_at_[dev] = done;
  busy_[dev] += cycles;
  // Completion raises the interrupt; delivery adds the fabric latency.
  sim_.schedule_at(done + irq_latency_,
                   [this, dev, pe, handler = std::move(on_complete)]() mutable {
                     ++jobs_[dev];
                     deliver(pe, std::move(handler));
                   });
  return done;
}

void DeviceManager::deliver(PeId pe, sim::SmallFn handler) {
  if (masked_[pe]) {
    ++deferred_;
    pending_[pe].push_back(std::move(handler));
    return;
  }
  ++delivered_;
  handler();
}

void DeviceManager::drain(PeId pe) {
  auto queue = std::move(pending_[pe]);
  pending_[pe].clear();
  for (auto& h : queue) {
    ++delivered_;
    h();
  }
}

}  // namespace delta::rtos

// Allocation guard: a warm kernel service window must not touch the host
// heap.
//
// The binary replaces the global operator new and counts its calls. The
// same periodic storm runs twice on each of RTOS1-7, with K activations
// per task and then with 2K. Construction, workload build and one-off
// growth are the same in both runs, so the difference is what the extra
// K activations cost: each one walks alloc -> request -> lock -> compute
// -> unlock -> release -> free, contended, through every service window.
// The budget is one allocation per 1,000 dispatched events; what is left
// is amortized growth of the sample vectors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/random.h"
#include "soc/delta_framework.h"
#include "soc/mpsoc.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Out of line, so that the compiler does not pair an inlined free() with
// a new-expression and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace delta::soc {
namespace {

constexpr sim::Cycles kPeriod = 20'000;
constexpr std::uint32_t kActivations = 500;

struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t finished = 0;
};

/// One storm of `activations` per task, counted from construction to the
/// end of the run. No gtest macro runs inside the counted window.
Tally run_storm(RtosPreset preset, std::uint32_t activations) {
  MpsocConfig mc = rtos_preset(preset).to_mpsoc_config();
  mc.stop_on_deadlock = false;
  mc.trace = false;
  mc.trace_capacity = 0;
  mc.sample_period = 0;
  mc.record_transitions = false;

  Tally t;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    Mpsoc soc(mc);
    auto& k = soc.kernel();
    const rtos::ResourceId idct = soc.resource("IDCT");
    const rtos::ResourceId dsp = soc.resource("DSP");
    sim::Rng rng(11);
    for (std::size_t i = 0; i < k.config().pe_count; ++i) {
      const rtos::ResourceId res = i % 2 ? dsp : idct;
      rtos::Program p;
      p.alloc(4096, "work")
          .request({res})
          .lock(0)
          .compute(500 + rng.below(200))
          .unlock(0)
          .compute(1000 + rng.below(400))
          .release({res})
          .free("work");
      k.create_periodic_task("storm" + std::to_string(i + 1),
                             static_cast<rtos::PeId>(i),
                             static_cast<rtos::Priority>(i + 1), std::move(p),
                             kPeriod, activations,
                             static_cast<sim::Cycles>(200 * i));
    }
    soc.run(kPeriod * (activations + 2));
    t.events = soc.simulator().events_dispatched();
    for (rtos::TaskId id = 0; id < k.task_count(); ++id)
      t.finished += k.task(id).activations_done;
  }
  t.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return t;
}

/// Parameter: the Table 3 row, 1..7.
class AllocGuard : public ::testing::TestWithParam<int> {};

TEST_P(AllocGuard, ExtraActivationsAllocateAtMostOncePerThousandEvents) {
  const RtosPreset preset = rtos_preset_from_int(GetParam());
  const Tally k = run_storm(preset, kActivations);
  const Tally k2 = run_storm(preset, 2 * kActivations);
  ASSERT_GT(k2.events, k.events);
  // Every activation ran: the storm really went through the services.
  EXPECT_EQ(k2.finished, 2 * k.finished);
  const std::uint64_t extra_events = k2.events - k.events;
  const std::uint64_t extra_allocations =
      k2.allocations > k.allocations ? k2.allocations - k.allocations : 0;
  EXPECT_LE(extra_allocations * 1000, extra_events)
      << extra_allocations << " allocations over " << extra_events
      << " extra events (" << k.allocations << " -> " << k2.allocations
      << " per run)";
}

INSTANTIATE_TEST_SUITE_P(Presets, AllocGuard, ::testing::Range(1, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "RTOS" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace delta::soc

// stress: the periodic kernel-service storm of bench/bench_throughput.cpp
// over RTOS1-7 with a long horizon (~21k events per run, transition log
// off). Set-up amortizes below 1%, so the event loop, the fused service
// windows, the lock/heap backends and the bus dominate; per-run set-up
// and serialization changes should leave it unchanged.
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "harness.h"
#include "soc/delta_framework.h"
#include "soc/mpsoc.h"

namespace perfbench {
namespace {

using namespace delta;

constexpr sim::Cycles kLimit = 10'000'000;
constexpr sim::Cycles kPeriod = 20'000;
constexpr std::size_t kSeedsPerPreset = 16;
constexpr std::size_t kQuickSeedsPerPreset = 2;  ///< --quick
constexpr std::uint64_t kReferenceSeed = 1;

/// One mixed-style task pinned per PE, each activation walking alloc ->
/// request -> lock -> compute -> unlock -> release -> free, re-released
/// every kPeriod cycles until the horizon.
void build_stress(soc::Mpsoc& soc, sim::Rng& rng) {
  auto& k = soc.kernel();
  const rtos::ResourceId idct = soc.resource("IDCT");
  const rtos::ResourceId dsp = soc.resource("DSP");
  const std::size_t pes = k.config().pe_count;
  const auto activations = static_cast<std::uint32_t>(kLimit / kPeriod);
  for (std::size_t t = 0; t < pes; ++t) {
    rtos::Program p;
    p.alloc(4096, "work")
        .request({t % 2 ? dsp : idct})
        .lock(0)
        .compute(500 + rng.below(200))
        .unlock(0)
        .compute(1000 + rng.below(400))
        .release({t % 2 ? dsp : idct})
        .free("work");
    k.create_periodic_task("stress" + std::to_string(t + 1),
                           static_cast<rtos::PeId>(t),
                           static_cast<rtos::Priority>(t + 1), std::move(p),
                           kPeriod, activations,
                           static_cast<sim::Cycles>(200 * t));
  }
}

struct Cell {
  soc::MpsocConfig config;
  std::uint64_t seed = 0;
};

std::vector<Cell> make_cells(std::uint64_t seed, std::size_t seeds) {
  std::vector<Cell> cells;
  for (std::size_t c = 0; c < soc::kAllRtosPresets.size(); ++c) {
    soc::MpsocConfig mc =
        soc::rtos_preset(soc::kAllRtosPresets[c]).to_mpsoc_config();
    // The tracing-off fast path: nothing reads the trace, sampler or
    // transition log, and detection presets keep running.
    mc.stop_on_deadlock = false;
    mc.trace = false;
    mc.trace_capacity = 0;
    mc.sample_period = 0;
    mc.record_transitions = false;
    for (std::uint64_t s = 0; s < seeds; ++s)
      cells.push_back({mc, exp::derive_run_seed(seed, c, 0, s)});
  }
  return cells;
}

struct Outcome {
  bool ok = false;
  sim::Cycles end = 0;
  std::uint64_t events = 0;
};

Outcome run_cell(const Cell& c, soc::EngineReport* engine = nullptr) {
  Outcome o;
  try {
    soc::MpsocConfig mc = c.config;
    mc.engine_stats = engine != nullptr;
    soc::Mpsoc soc(mc);
    sim::Rng rng(c.seed);
    build_stress(soc, rng);
    o.end = soc.run(kLimit);
    o.events = soc.simulator().events_dispatched();
    o.ok = o.events > 0;
    if (engine != nullptr) *engine = soc.engine_report();
  } catch (const std::exception&) {
    o.ok = false;
  }
  return o;
}

std::uint64_t signature(const Outcome& o) {
  Digest d;
  d.u64(o.ok);
  d.u64(o.end);
  d.u64(o.events);
  return d.value();
}

class Stress final : public Workload {
 public:
  explicit Stress(bool quick)
      : seeds_(quick ? kQuickSeedsPerPreset : kSeedsPerPreset) {}

  const char* name() const override { return "stress"; }

  void setup(std::uint64_t seed) override {
    cells_ = make_cells(seed, seeds_);
    // Warm-up: every cell once.
    for (const Cell& c : cells_) (void)run_cell(c);
  }

  std::size_t cells() const override { return cells_.size(); }

  std::string pass(std::vector<double>& cell_us,
                   std::uint64_t& failed) override {
    signatures_.clear();
    Digest d;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::uint64_t t0 = cpu_ns();
      const Outcome o = run_cell(cells_[i]);
      cell_us[i] = static_cast<double>(cpu_ns() - t0) * 1e-3;
      if (!o.ok) ++failed;
      signatures_.push_back(signature(o));
      d.u64(signatures_.back());
    }
    return d.hex();
  }

  Verified verify() override {
    Verified v;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      soc::EngineReport e;
      const Outcome o = run_cell(cells_[i], &e);
      ++v.cells;
      if (!o.ok) ++v.failed;
      v.add(e);
      if (i >= signatures_.size() || signature(o) != signatures_[i])
        v.ok = false;
    }
    return v;
  }

  std::string reference_digest() override {
    Digest d;
    for (const Cell& c : make_cells(kReferenceSeed, kSeedsPerPreset))
      d.u64(signature(run_cell(c)));
    return d.hex();
  }

  void traced_pass(std::vector<double>& cell_us,
                   std::uint64_t& failed) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      const std::uint64_t t0 = cpu_ns();
      soc::Mpsoc soc(c.config);
      const std::uint64_t t1 = cpu_ns();
      sim::Rng rng(c.seed);
      build_stress(soc, rng);
      const std::uint64_t t2 = cpu_ns();
      const sim::Cycles end = soc.run(kLimit);
      const std::uint64_t t3 = cpu_ns();
      construct_ns_ += t1 - t0;
      run_ns_ += t3 - t2;
      ++traced_runs_;
      cell_us[i] = static_cast<double>(t3 - t0) * 1e-3;
      const Outcome o{true, end, soc.simulator().events_dispatched()};
      if (signature(o) != signatures_[i]) ++failed;
    }
  }

  void put_spans(Metrics& out) const override {
    const auto mean_us = [&](std::uint64_t ns) {
      return static_cast<double>(ns) * 1e-3 / static_cast<double>(traced_runs_);
    };
    put(out, "soc.construct_us.stress", mean_us(construct_ns_), "us");
    put(out, "soc.run_us.stress", mean_us(run_ns_), "us");
  }

 private:
  std::size_t seeds_;
  std::vector<Cell> cells_;
  std::vector<std::uint64_t> signatures_;
  // Summed over every traced pass.
  std::uint64_t construct_ns_ = 0, run_ns_ = 0, traced_runs_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stress(bool quick) {
  return std::make_unique<Stress>(quick);
}

}  // namespace perfbench

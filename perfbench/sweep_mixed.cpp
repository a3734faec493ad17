// sweep-mixed: the paper's Table 3 comparison as a user runs it — RTOS1-7
// x the `mixed` workload x 144 seeds, one exp::execute_run per cell and
// one exp::report_to_json per pass. At ~150 events per run, fixed per-run
// costs (Mpsoc construction, workload build, collection, JSON) dominate.
#include <string>
#include <vector>

#include "exp/json.h"
#include "exp/sweep.h"
#include "exp/workloads.h"
#include "harness.h"
#include "soc/mpsoc.h"

namespace perfbench {
namespace {

using namespace delta;

constexpr std::size_t kSeeds = 144;         ///< cells per preset
constexpr std::size_t kQuickSeeds = 8;      ///< cells per preset, --quick
constexpr std::uint64_t kReferenceSeed = 1;  ///< the pinned input

exp::SweepSpec make_spec(std::uint64_t seed, std::size_t seeds) {
  exp::SweepSpec s;
  s.configs = exp::all_preset_points();
  s.workloads = {exp::mixed_workload()};
  s.seeds.clear();
  for (std::uint64_t i = 0; i < seeds; ++i) s.seeds.push_back(i);
  s.base_seed = seed;
  return s;
}

/// What a speed-only change must keep: the run's simulated statistics.
std::uint64_t signature(const exp::RunResult& r) {
  Digest d;
  d.u64(r.ok);
  d.u64(r.sim_cycles);
  d.u64(r.app_run_time);
  d.u64(r.all_finished);
  d.u64(r.deadlock_detected);
  d.u64(r.recoveries);
  d.u64(r.algorithm_invocations);
  d.u64(r.mgmt_cycles);
  return d.value();
}

/// The collect step of exp::execute_run: the run's kernel statistics and
/// metrics snapshot as a RunResult.
exp::RunResult collect(soc::Mpsoc& soc, sim::Cycles cycles) {
  exp::RunResult r;
  r.ok = true;
  r.sim_cycles = cycles;
  rtos::Kernel& k = soc.kernel();
  r.last_finish = k.last_finish_time();
  r.all_finished = k.all_finished();
  r.deadlock_detected = k.deadlock_detected();
  r.deadlock_time = k.deadlock_time();
  r.app_run_time =
      k.deadlock_detected() ? k.deadlock_time() : k.last_finish_time();
  r.recoveries = k.recoveries();
  r.deadline_misses = k.deadline_misses();
  r.algorithm_avg = k.strategy().algorithm_times().mean();
  r.algorithm_invocations = k.strategy().invocations();
  r.lock_latency = k.lock_latency();
  r.lock_delay = k.lock_delay();
  r.alloc_latency = k.alloc_latency();
  r.mgmt_cycles = k.memory().total_mgmt_cycles();
  r.mgmt_calls = k.memory().call_count();
  r.metrics = soc.observer().metrics.snapshot();
  r.pe_count = soc.config().pe_count;
  return r;
}

class SweepMixed final : public Workload {
 public:
  explicit SweepMixed(bool quick) : seeds_(quick ? kQuickSeeds : kSeeds) {}

  const char* name() const override { return "sweep-mixed"; }

  void setup(std::uint64_t seed) override {
    spec_ = make_spec(seed, seeds_);
    runs_ = exp::expand(spec_);
    // Warm-up: every cell once.
    for (const exp::RunSpec& rs : runs_) (void)exp::execute_run(rs, spec_);
  }

  std::size_t cells() const override { return runs_.size(); }

  std::string pass(std::vector<double>& cell_us,
                   std::uint64_t& failed) override {
    report_.runs.clear();
    report_.runs.reserve(runs_.size());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const std::uint64_t t0 = cpu_ns();
      report_.runs.push_back(exp::execute_run(runs_[i], spec_));
      cell_us[i] = static_cast<double>(cpu_ns() - t0) * 1e-3;
      if (!report_.runs.back().ok) ++failed;
    }
    const std::uint64_t t0 = cpu_ns();
    const std::string json = exp::report_to_json(spec_, report_);
    const double share =
        static_cast<double>(cpu_ns() - t0) * 1e-3 / static_cast<double>(cells());
    for (double& us : cell_us) us += share;

    signatures_.clear();
    for (const exp::RunResult& r : report_.runs)
      signatures_.push_back(signature(r));
    Digest d;
    d.bytes(json);
    return d.hex();
  }

  Verified verify() override {
    exp::SweepSpec with_stats = spec_;  // RunSpecs point into spec_
    with_stats.engine_stats = true;
    Verified v;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const exp::RunResult r = exp::execute_run(runs_[i], with_stats);
      ++v.cells;
      if (!r.ok) ++v.failed;
      v.add(r.engine);
      if (i >= signatures_.size() || signature(r) != signatures_[i])
        v.ok = false;
    }
    return v;
  }

  std::string reference_digest() override {
    const exp::SweepSpec spec = make_spec(kReferenceSeed, kSeeds);
    exp::SweepReport rep;
    for (const exp::RunSpec& rs : exp::expand(spec))
      rep.runs.push_back(exp::execute_run(rs, spec));
    Digest d;
    d.bytes(exp::report_to_json(spec, rep));
    return d.hex();
  }

  // The phases of exp::execute_run, called one by one from here with a
  // span around each: config -> construct -> build -> run -> collect,
  // plus the pass's report_to_json spread over its cells. The snapshot
  // is timed once more on its own, outside the cell total, to give the
  // collect step's metrics-registry share.
  void traced_pass(std::vector<double>& cell_us,
                   std::uint64_t& failed) override {
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const exp::RunSpec& rs = runs_[i];
      const std::uint64_t t0 = cpu_ns();
      soc::MpsocConfig mc = rs.config->config.to_mpsoc_config();
      if (rs.workload->tune) rs.workload->tune(mc);
      if (rs.config->tune) rs.config->tune(mc);
      mc.trace = spec_.trace;
      mc.trace_capacity = spec_.trace_capacity;
      mc.sample_period = spec_.sample_period;
      mc.engine_stats = spec_.engine_stats;
      const std::uint64_t t1 = cpu_ns();
      soc::Mpsoc soc(mc);
      const std::uint64_t t2 = cpu_ns();
      sim::Rng rng(rs.run_seed);
      rs.workload->build(soc, rng);
      const std::uint64_t t3 = cpu_ns();
      const sim::Cycles cycles = soc.run(spec_.run_limit);
      const std::uint64_t t4 = cpu_ns();
      const exp::RunResult r = collect(soc, cycles);
      const std::uint64_t t5 = cpu_ns();
      const obs::MetricsSnapshot snap = soc.observer().metrics.snapshot();
      const std::uint64_t t6 = cpu_ns();
      spans_.construct += t2 - t1;
      spans_.build += t3 - t2;
      spans_.run += t4 - t3;
      spans_.snapshot += t6 - t5;
      spans_.total += t5 - t0;
      ++spans_.runs;
      cell_us[i] = static_cast<double>(t5 - t0) * 1e-3;
      if (signature(r) != signatures_[i] ||
          snap.counters != r.metrics.counters)
        ++failed;
    }
    const std::uint64_t t0 = cpu_ns();
    const std::string json = exp::report_to_json(spec_, report_);
    const std::uint64_t report = cpu_ns() - t0;
    spans_.report += report;
    spans_.report_bytes += json.size();
    const double share =
        static_cast<double>(report) * 1e-3 / static_cast<double>(cells());
    for (double& us : cell_us) us += share;
  }

  void put_spans(Metrics& out) const override {
    const auto mean_us = [&](std::uint64_t ns) {
      return static_cast<double>(ns) * 1e-3 / static_cast<double>(spans_.runs);
    };
    put(out, "soc.construct_us", mean_us(spans_.construct), "us");
    put(out, "exp.build_us", mean_us(spans_.build), "us");
    put(out, "soc.run_us", mean_us(spans_.run), "us");
    put(out, "obs.snapshot_us", mean_us(spans_.snapshot), "us");
    put(out, "exp.report_us_per_run", mean_us(spans_.report), "us");
    put(out, "exp.report_bytes_per_run",
        static_cast<double>(spans_.report_bytes) /
            static_cast<double>(spans_.runs),
        "B");
    put(out, "exp.run_total_us", mean_us(spans_.total + spans_.report), "us");
  }

 private:
  std::size_t seeds_;
  exp::SweepSpec spec_;
  std::vector<exp::RunSpec> runs_;
  exp::SweepReport report_;  ///< the last pass's results
  std::vector<std::uint64_t> signatures_;
  struct {
    std::uint64_t construct = 0, build = 0, run = 0, snapshot = 0, total = 0;
    std::uint64_t report = 0, report_bytes = 0, runs = 0;
  } spans_;  ///< summed over every traced pass
};

}  // namespace

std::unique_ptr<Workload> make_sweep_mixed(bool quick) {
  return std::make_unique<SweepMixed>(quick);
}

}  // namespace perfbench

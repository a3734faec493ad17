// bench_throughput — host-throughput baseline for the simulation core.
//
// Measures how many *host* events/sec and simulated-cycles/sec the DES
// kernel sustains on each Table 3 preset (RTOS1..RTOS7) with tracing
// off — the configuration every sweep and fuzz campaign spends its
// wall-clock in. The default "stress" scenario is periodic (one
// mixed-style task pinned per PE, re-activated every 20k cycles until
// the --limit horizon), so the event count scales with --limit and the
// per-run Mpsoc construction cost amortizes below 1% — events/sec
// genuinely measures the event loop, not setup. The JSON it emits is
// the committed bench/BENCH_throughput.json baseline that
// scripts/bench_baseline.sh --throughput compares against in CI.
//
// Timing: each run is clocked on process CPU time and the reported
// events_per_sec is the *best* single run — on an oversubscribed CI
// host wall-clock mostly measures the neighbours, while the best
// CPU-time run converges on the machine's true single-core rate (and
// equals wall time on an idle box). mean_events_per_sec is also
// emitted so scheduling jitter stays visible.
//
//   bench_throughput --out BENCH_throughput.json
//   bench_throughput --presets 4,5 --min-seconds 1.0
#include <ctime>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/json.h"
#include "exp/sweep.h"
#include "exp/workloads.h"
#include "soc/delta_framework.h"
#include "soc/mpsoc.h"

using namespace delta;

namespace {

struct PresetResult {
  std::string name;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;      ///< host events dispatched, all runs
  std::uint64_t sim_cycles = 0;  ///< simulated cycles covered, all runs
  double cpu_seconds = 0.0;      ///< process CPU time, all runs
  double best_events_per_sec = 0.0;      ///< fastest single run
  double best_sim_cycles_per_sec = 0.0;  ///< same run's cycle rate
  /// --engine-stats: introspection from one extra run that is never
  /// counted into the timing above (collection is cheap but not free).
  soc::EngineReport engine;
  double engine_cpu_seconds = 0.0;  ///< host cost of the instrumented run
};

/// Process CPU time in seconds — immune to preemption by co-tenant
/// load, which is what a wall clock on a shared CI host measures.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --presets LIST    comma list of Table 3 rows (default: all seven)\n"
      "  --workload NAME   'stress' (default) or any exp workload name\n"
      "  --seed N          run seed (default 1)\n"
      "  --limit CYCLES    per-run simulation horizon (default 10000000;\n"
      "                    stress needs at least one 20000-cycle period)\n"
      "  --min-seconds S   measure each preset for at least S wall seconds\n"
      "                    (default 0.5)\n"
      "  --min-runs N      and for at least N runs (default 3)\n"
      "  --engine-stats    one extra, untimed instrumented run per preset;\n"
      "                    adds an \"engine\" block (queue/kernel counters\n"
      "                    and the run's host cost) to each preset's JSON\n"
      "  --out FILE        JSON output path (default '-' for stdout)\n",
      argv0);
  return 2;
}

constexpr sim::Cycles kStressPeriod = 20'000;

/// Periodic kernel-service storm: one mixed-style task pinned per PE,
/// each activation walking alloc -> request -> lock -> compute ->
/// unlock -> release -> free, re-released every kStressPeriod cycles
/// until the run horizon. Every activation exercises the scheduler, the
/// lock and memory backends, the deadlock strategy and the bus — the
/// same hot path sweeps pay — and the activation count scales linearly
/// with `limit`.
void build_stress(soc::Mpsoc& soc, sim::Rng& rng, sim::Cycles limit) {
  auto& k = soc.kernel();
  const rtos::ResourceId idct = soc.resource("IDCT");
  const rtos::ResourceId dsp = soc.resource("DSP");
  const std::size_t pes = k.config().pe_count;
  const auto activations = static_cast<std::uint32_t>(limit / kStressPeriod);
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
                           kStressPeriod, activations,
                           static_cast<sim::Cycles>(200 * t));
  }
}

exp::Workload stress_workload(sim::Cycles limit) {
  if (limit < kStressPeriod)
    throw std::invalid_argument(
        "--limit " + std::to_string(limit) + " is shorter than one " +
        std::to_string(kStressPeriod) + "-cycle stress period");
  exp::Workload w;
  w.name = "stress";
  w.build = [limit](soc::Mpsoc& soc, sim::Rng& rng) {
    build_stress(soc, rng, limit);
  };
  return w;
}

/// The throughput question is about the tracing-off fast path: no
/// structured trace, no sampler, no per-transition phase log (nothing
/// here reads it, same as the differential fuzzer), detection presets
/// not frozen on the deadlock-free bench workload.
void apply_bench_flags(soc::MpsocConfig& mc) {
  mc.stop_on_deadlock = false;
  mc.trace = false;
  mc.trace_capacity = 0;
  mc.sample_period = 0;
  mc.record_transitions = false;
}

/// One complete simulation of `preset` x `workload`; returns the host
/// events dispatched and adds the covered simulated cycles.
std::uint64_t one_run(const exp::Workload& w, const soc::DeltaConfig& cfg,
                      std::uint64_t seed, sim::Cycles limit,
                      std::uint64_t* sim_cycles,
                      soc::EngineReport* engine = nullptr) {
  soc::MpsocConfig mc = cfg.to_mpsoc_config();
  if (w.tune) w.tune(mc);
  apply_bench_flags(mc);
  mc.engine_stats = engine != nullptr;

  soc::Mpsoc soc(mc);
  sim::Rng rng(seed);
  w.build(soc, rng);
  *sim_cycles += soc.run(limit);
  if (engine != nullptr) *engine = soc.engine_report();
  return soc.simulator().events_dispatched();
}

}  // namespace

int main(int argc, char** argv) {
  std::string presets;
  std::string workload = "stress";
  std::uint64_t seed = 1;
  sim::Cycles limit = 10'000'000;
  double min_seconds = 0.5;
  std::uint64_t min_runs = 3;
  bool engine_stats = false;
  std::string out_path = "-";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--presets") presets = next();
    else if (arg == "--workload") workload = next();
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--limit") limit = std::strtoull(next(), nullptr, 10);
    else if (arg == "--min-seconds") min_seconds = std::atof(next());
    else if (arg == "--min-runs") min_runs = std::strtoull(next(), nullptr, 10);
    else if (arg == "--engine-stats") engine_stats = true;
    else if (arg == "--out") out_path = next();
    else return usage(argv[0]);
  }

  std::vector<soc::RtosPreset> rows;
  exp::Workload w;
  try {
    if (presets.empty()) {
      rows.assign(soc::kAllRtosPresets.begin(), soc::kAllRtosPresets.end());
    } else {
      std::size_t start = 0;
      while (start <= presets.size()) {
        const std::size_t end = presets.find(',', start);
        const std::string tok = presets.substr(
            start, end == std::string::npos ? std::string::npos : end - start);
        rows.push_back(soc::rtos_preset_from_string(tok));
        if (end == std::string::npos) break;
        start = end + 1;
      }
    }
    w = workload == "stress" ? stress_workload(limit)
                             : exp::find_workload(workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::vector<PresetResult> results;
  for (const soc::RtosPreset p : rows) {
    const soc::DeltaConfig cfg = soc::rtos_preset(p);
    PresetResult r;
    r.name = soc::to_string(p);

    // Warm-up run (page-faults the slabs, primes branch predictors);
    // not counted.
    {
      std::uint64_t scratch = 0;
      (void)one_run(w, cfg, seed, limit, &scratch);
    }

    for (;;) {
      const double t0 = cpu_now();
      std::uint64_t run_cycles = 0;
      const std::uint64_t run_events =
          one_run(w, cfg, seed, limit, &run_cycles);
      const double dt = cpu_now() - t0;
      r.events += run_events;
      r.sim_cycles += run_cycles;
      r.cpu_seconds += dt;
      ++r.runs;
      if (dt > 0 && static_cast<double>(run_events) / dt > r.best_events_per_sec) {
        r.best_events_per_sec = static_cast<double>(run_events) / dt;
        r.best_sim_cycles_per_sec = static_cast<double>(run_cycles) / dt;
      }
      if (r.runs >= min_runs && r.cpu_seconds >= min_seconds) break;
    }
    if (engine_stats) {
      // One instrumented run outside the timed loop: the throughput
      // figures above stay collection-free, while the engine block
      // attributes where those events actually went.
      const double t0 = cpu_now();
      std::uint64_t scratch = 0;
      (void)one_run(w, cfg, seed, limit, &scratch, &r.engine);
      r.engine_cpu_seconds = cpu_now() - t0;
    }
    std::fprintf(stderr,
                 "%-6s %3llu runs  %.2f cpu-s  best %llu events/s  "
                 "mean %llu events/s  %llu simcycles/s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.runs),
                 r.cpu_seconds,
                 static_cast<unsigned long long>(r.best_events_per_sec),
                 static_cast<unsigned long long>(
                     static_cast<double>(r.events) / r.cpu_seconds),
                 static_cast<unsigned long long>(r.best_sim_cycles_per_sec));
    results.push_back(std::move(r));
  }

  exp::JsonWriter jw;
  jw.begin_object();
  jw.key("schema").value("delta.bench.throughput.v3");
  jw.key("workload").value(workload);
  jw.key("seed").value(seed);
  jw.key("limit").value(static_cast<std::uint64_t>(limit));
  jw.key("clock").value("process_cpu_best_run");
  jw.key("presets").begin_object();
  for (const PresetResult& r : results) {
    jw.key(r.name).begin_object();
    jw.key("runs").value(r.runs);
    jw.key("events").value(r.events);
    jw.key("sim_cycles").value(r.sim_cycles);
    jw.key("cpu_seconds").value(r.cpu_seconds);
    jw.key("events_per_sec")
        .value(static_cast<std::uint64_t>(r.best_events_per_sec));
    jw.key("mean_events_per_sec")
        .value(static_cast<std::uint64_t>(static_cast<double>(r.events) /
                                          r.cpu_seconds));
    jw.key("sim_cycles_per_sec")
        .value(static_cast<std::uint64_t>(r.best_sim_cycles_per_sec));
    if (r.engine.enabled) {
      jw.key("engine");
      exp::write_engine_report(jw, r.engine, obs::TimeSeries{});
      jw.key("engine_host_cpu_seconds").value(r.engine_cpu_seconds);
    }
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
  const std::string json = jw.str() + "\n";

  if (out_path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "written to %s\n", out_path.c_str());
  }
  return 0;
}

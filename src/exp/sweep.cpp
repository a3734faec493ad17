#include "exp/sweep.h"

#include <ctime>
#include <stdexcept>

#include "soc/profile.h"

namespace delta::exp {

namespace {

/// splitmix64 finalizer — the same mixer sim::Rng seeds itself with.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Host CPU time of the calling thread in nanoseconds. Used to cost
/// individual runs: each run executes on exactly one worker thread, so
/// the thread clock isolates it from its pool neighbours.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

ConfigPoint preset_point(soc::RtosPreset p) {
  ConfigPoint cp;
  cp.name = soc::to_string(p);
  cp.config = soc::rtos_preset(p);
  return cp;
}

std::vector<ConfigPoint> all_preset_points() {
  std::vector<ConfigPoint> points;
  for (soc::RtosPreset p : soc::kAllRtosPresets)
    points.push_back(preset_point(p));
  return points;
}

ConfigPoint named_config_point(std::string_view name) {
  if (name == "bankers") {
    ConfigPoint cp;
    cp.name = "bankers";
    cp.config = soc::bankers_config();
    return cp;
  }
  if (name == "wfg-recovery") {
    ConfigPoint cp;
    cp.name = "wfg-recovery";
    cp.config = soc::wfg_recovery_config();
    return cp;
  }
  return preset_point(soc::rtos_preset_from_string(name));
}

std::uint64_t derive_run_seed(std::uint64_t base_seed,
                              std::size_t config_index,
                              std::size_t workload_index,
                              std::uint64_t seed) {
  std::uint64_t h = mix(base_seed);
  h = mix(h ^ (0xC0F1ULL + config_index));
  h = mix(h ^ (0x3017ULL + workload_index));
  h = mix(h ^ seed);
  return h;
}

std::vector<RunSpec> expand(const SweepSpec& spec) {
  std::vector<RunSpec> runs;
  runs.reserve(spec.configs.size() * spec.workloads.size() *
               spec.seeds.size());
  for (std::size_t ci = 0; ci < spec.configs.size(); ++ci)
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi)
      for (const std::uint64_t seed : spec.seeds) {
        RunSpec rs;
        rs.index = runs.size();
        rs.config = &spec.configs[ci];
        rs.workload = &spec.workloads[wi];
        rs.seed = seed;
        rs.run_seed = derive_run_seed(spec.base_seed, ci, wi, seed);
        runs.push_back(rs);
      }
  return runs;
}

RunResult execute_run(const RunSpec& rs, const SweepSpec& spec) {
  RunResult r;
  r.index = rs.index;
  r.config = rs.config->name;
  r.workload = rs.workload->name;
  r.seed = rs.seed;
  r.run_seed = rs.run_seed;
  const std::uint64_t host_t0 = spec.engine_stats ? thread_cpu_ns() : 0;
  try {
    soc::MpsocConfig mc = rs.config->config.to_mpsoc_config();
    if (rs.workload->tune) rs.workload->tune(mc);
    if (rs.config->tune) rs.config->tune(mc);
    mc.trace = spec.trace;
    mc.trace_capacity = spec.trace_capacity;
    mc.sample_period = spec.sample_period;
    mc.engine_stats = spec.engine_stats;
    // Only the profile reads the phase log: the sampler's per-PE busy
    // windows fold it too, but a run keeps its time series only when
    // profiled. Any other run skips the log's growth.
    mc.record_transitions = spec.profile;

    soc::Mpsoc soc(mc);
    sim::Rng rng(rs.run_seed);
    rs.workload->build(soc, rng);
    r.sim_cycles = soc.run(spec.run_limit);

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
    if (soc.observer().trace.enabled()) {
      r.trace_events = soc.observer().trace.events();
      r.trace_dropped = soc.observer().trace.dropped();
    }
    r.pe_count = mc.pe_count;
    if (spec.profile) {
      r.profile = soc::profile_report(soc);
      r.has_profile = true;
      r.timeseries = soc.time_series();
    }
    if (spec.engine_stats) {
      r.engine = soc.engine_report();
      r.engine_timeseries = soc.engine_time_series();
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  if (spec.engine_stats) r.host_cpu_ns = thread_cpu_ns() - host_t0;
  return r;
}

}  // namespace delta::exp

// perfbench — the repository benchmark: end-to-end cost of the runs users
// pay for (sweep-mixed, fuzz-large, stress), and with --trace 1 the
// per-layer breakdown. See README.md in this directory.
//
//   perfbench --workload sweep-mixed --seed 7 --seconds 10 --trace 0
//
// The last stdout line is the result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Lines before it carry the host stamp, the digests and (traced) the
// layer -> end-to-end map.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

/// Output digest of each workload's reference input (seed 1). A change
/// that only makes the simulator faster leaves all three unchanged.
struct Pin {
  const char* workload;
  const char* digest;
};
constexpr Pin kPins[] = {
    {"sweep-mixed", "5db44f37d933df80"},
    {"fuzz-large", "56476b66350a346e"},
    {"stress", "ff844eaf97767b6d"},
};

/// Which end-to-end metric, on which workload, each layer metric should
/// move. First matching prefix wins; "*" stands for the metric's own
/// ".<workload>" suffix.
struct Target {
  const char* prefix;
  const char* target;
};
constexpr Target kTargets[] = {
    {"soc.construct_us.stress", "events_per_sec @ stress"},
    {"soc.run_us.stress", "events_per_sec @ stress"},
    {"soc.construct_us", "runs_per_sec, run_p50_us @ sweep-mixed"},
    {"soc.run_us", "runs_per_sec, run_p50_us @ sweep-mixed"},
    {"exp.build_us", "runs_per_sec, run_p50_us @ sweep-mixed"},
    {"exp.report_", "runs_per_sec, peak_rss_mb @ sweep-mixed"},
    {"exp.run_total_us", "run_p50_us @ sweep-mixed"},
    {"obs.snapshot_us", "runs_per_sec @ sweep-mixed"},
    {"obs.trace_overhead_frac", "runs_per_sec traced vs untraced @ this run"},
    {"sim.events_per_run.", "events_per_sec / runs_per_sec @ *"},
    {"sim.queue_footprint_kb.", "soc.construct_us, peak_rss_mb @ *"},
    {"sim.sched_pop_ns.live4", "events_per_sec @ stress"},
    {"sim.sched_pop_ns.", "runs_per_sec @ fuzz-large"},
    {"sim.", "events_per_sec @ *"},
    {"rtos.pi_lock_ns", "events_per_sec @ stress"},
    {"rtos.heap_alloc_ns", "events_per_sec @ stress"},
    {"rtos.", "events_per_sec @ *"},
    {"hw.soclc_lock_ns", "events_per_sec @ stress"},
    {"hw.socdmmu_alloc_ns", "events_per_sec @ stress"},
    {"hw.", "runs_per_sec @ fuzz-large"},
    {"deadlock.", "runs_per_sec @ fuzz-large (about zero @ sweep-mixed)"},
    {"bus.", "events_per_sec @ stress"},
    {"rag.", "runs_per_sec @ fuzz-large"},
    {"fuzz.scenario_gen_us", "setup_s @ fuzz-large"},
    {"fuzz.", "runs_per_sec @ fuzz-large"},
};

const char* kWorkloads[] = {"sweep-mixed", "fuzz-large", "stress"};

std::unique_ptr<Workload> make(const std::string& name, bool quick) {
  if (name == "sweep-mixed") return make_sweep_mixed(quick);
  if (name == "fuzz-large") return make_fuzz_large(quick);
  if (name == "stress") return make_stress(quick);
  return nullptr;
}

std::string target_of(const std::string& metric) {
  for (const Target& t : kTargets) {
    if (metric.rfind(t.prefix, 0) != 0) continue;
    std::string s = t.target;
    const std::size_t star = s.find('*');
    if (star != std::string::npos) {
      for (const char* w : kWorkloads)
        if (metric.size() > std::strlen(w) &&
            metric.compare(metric.size() - std::strlen(w), std::string::npos,
                           w) == 0)
          s.replace(star, 1, w);
    }
    return s;
  }
  return "";
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string list(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) s += (s.empty() ? "" : ", ") + num(x);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* pinned(const std::string& workload) {
  for (const Pin& p : kPins)
    if (workload == p.workload) return p.digest;
  return "";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;  ///< a few cells, one set-up and one pass
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep-mixed|fuzz-large|stress "
               "--seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--dirty 0|1] [--quick]\n");
  return 2;
}

/// Compiler, flags, build type, cores and source revision.
std::string host_stamp(const Args& a) {
  return "{\"compiler\": " + quote(PERFBENCH_COMPILER) +
         ", \"flags\": " + quote(PERFBENCH_CXX_FLAGS) +
         ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"commit\": " + quote(a.commit) + ", \"dirty\": " + quote(a.dirty) +
         "}";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) s += ", ";
    s += quote(m[i].name) + ": {\"value\": " + num(m[i].value) +
         ", \"unit\": " + quote(m[i].unit) + "}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Reference digest against its pin; prints both.
bool reference_ok(Workload& w) {
  const std::string ref = w.reference_digest();
  const bool ok = ref == pinned(w.name());
  std::printf("{\"reference\": {\"workload\": %s, \"digest\": %s, "
              "\"pinned\": %s, \"match\": %s}}\n",
              quote(w.name()).c_str(), quote(ref).c_str(),
              quote(pinned(w.name())).c_str(), ok ? "true" : "false");
  return ok;
}

/// End-to-end metrics, tracing off.
int run_untraced(const Args& a) {
  const std::unique_ptr<Workload> w = make(a.workload, a.quick);
  std::vector<double> setup_s;
  for (int i = 0; i < (a.quick ? 1 : 5); ++i) {
    const std::uint64_t t0 = cpu_ns();
    w->setup(a.seed);
    setup_s.push_back(static_cast<double>(cpu_ns() - t0) * 1e-9);
  }
  const Timed t = measure(*w, a.seconds, a.quick ? 1 : 5);
  const Verified v = w->verify();
  const bool ref = reference_ok(*w);
  const bool correct = ref && v.ok && v.failed == 0 && t.digests_stable;
  const std::uint64_t failed = correct ? t.failed : t.attempted;

  const double pass_s = sum(t.best_us) * 1e-6;
  const Tail tl = tail(t.best_us);
  Metrics m;
  put(m, "runs_per_sec", static_cast<double>(w->cells()) / pass_s, "1/s");
  put(m, "events_per_sec", static_cast<double>(v.events) / pass_s, "1/s");
  put(m, "run_p50_us", median(t.best_us), "us");
  put(m, "run_tail_us", tl.value, "us");
  put(m, "setup_s", median(setup_s), "s");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");

  std::printf("{\"host\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"passes\": %zu, \"cells\": %zu, \"tail_percentile\": %g, "
              "\"tail_beyond\": %zu, \"events_per_pass\": %llu, "
              "\"digest\": %s, \"digests_stable\": %s, "
              "\"stats_neutral\": %s, \"failed_frac\": %s, "
              "\"setup_s_samples\": [%s]}\n",
              host_stamp(a).c_str(), quote(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), t.passes, w->cells(),
              tl.percentile, tl.beyond,
              static_cast<unsigned long long>(v.events),
              quote(t.digest).c_str(), t.digests_stable ? "true" : "false",
              v.ok ? "true" : "false",
              num(static_cast<double>(failed) /
                  static_cast<double>(t.attempted))
                  .c_str(),
              list(setup_s).c_str());
  print_result(correct && failed == 0, t.attempted, failed, m);
  return 0;
}

/// Per-layer metrics: the microbenches, then traced passes of every
/// workload, each after an untraced pass. On the named workload the two
/// alternate for longer, and the cells' untraced vs traced cost is the
/// cost of the spans themselves (obs.trace_overhead_frac).
int run_traced(const Args& a) {
  Metrics m;
  layer_microbenches(a.seconds * 0.25, m);
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  double overhead = 0;
  for (const char* name : kWorkloads) {
    const std::unique_ptr<Workload> w = make(name, a.quick);
    const bool mine = a.workload == name;
    w->setup(a.seed);
    const Timed t = measure(*w, a.seconds * (mine ? 0.5 : 0.125), 1, true);
    attempted += t.attempted;
    failed += t.failed;
    w->put_spans(m);
    if (mine) overhead = sum(t.best_traced_us) / sum(t.best_us) - 1.0;
    Verified v = w->verify();
    v.put_layers(m, name, std::strcmp(name, "fuzz-large") == 0);
    correct = correct && v.ok && v.failed == 0 && t.digests_stable &&
              reference_ok(*w);
  }
  put(m, "obs.trace_overhead_frac", overhead, "frac");

  std::printf("{\"host\": %s, \"workload\": %s, \"seed\": %llu}\n",
              host_stamp(a).c_str(), quote(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed));
  for (const Metric& x : m)
    std::printf("%-40s %14.4f %-6s -> %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), target_of(x.name).c_str());
  if (!correct) failed = attempted;
  print_result(correct && failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report from an assert-enabled "
                       "build (NDEBUG is not defined)\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(v);
    else if (arg == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (arg == "--commit") a.commit = v;
    else if (arg == "--dirty") a.dirty = v;
    else return usage();
  }
  if (!make(a.workload, a.quick) || !(a.seconds > 0)) return usage();
  return a.trace ? run_traced(a) : run_untraced(a);
}

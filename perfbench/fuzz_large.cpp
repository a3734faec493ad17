// fuzz-large: differential fuzzing at large geometry — 216 draws of
// fuzz::random_scenario(large_geometry_params()), stratified by geometry,
// each run through fuzz::run_pair over the sharded-unit, Banker's and
// WFG-recovery pairs, then one campaign_report_json per pass. The deadlock
// strategies and the rag oracle do most of the work; construction is a
// small share.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "fuzz/campaign.h"
#include "fuzz/differential.h"
#include "fuzz/scenario.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace delta;

/// Geometry strata: each PE count with each (resources, tasks) shape,
/// spanning large_geometry_params()'s 8-64 PEs x 16-64 resources, with
/// 16-32 tasks. Scenario size dominates a cell's cost, so pinning each
/// draw to a stratum keeps the size mix — and with it the figures — the
/// same for every seed, while the seed draws everything else. Tasks stop
/// at 32 because livelocks (see finishes()) get more frequent with more
/// tasks: about 1 draw in 400 at 64 tasks, 1 in 2200 at 40. The cheap
/// 16-task shapes get three draws per round: the per-cell median falls
/// among them, and more of them keep it steady.
struct Shape {
  std::size_t resources, tasks, draws;
};
constexpr std::array<std::size_t, 3> kPes = {8, 32, 64};
constexpr std::array<Shape, 6> kShapes = {{{16, 16, 3},
                                           {40, 16, 3},
                                           {64, 16, 3},
                                           {32, 32, 1},
                                           {48, 32, 1},
                                           {64, 32, 1}}};

/// One round of draws: every PE count with every shape, `draws` times.
struct Stratum {
  std::size_t pes;
  Shape shape;
};
const std::vector<Stratum> kRound = [] {
  std::vector<Stratum> out;
  for (const Shape& sh : kShapes)
    for (std::size_t d = 0; d < sh.draws; ++d)
      for (const std::size_t pes : kPes) out.push_back({pes, sh});
  return out;
}();
constexpr std::size_t kRounds = 6;  ///< rounds per pass
constexpr std::uint64_t kReferenceSeed = 1;
constexpr std::array<const char*, 4> kPairs = {
    "ddu-sharded", "dau-sharded", "bankers-vs-daa", "wfg-recovery"};

/// CPU seconds one scenario may take over all four pairs before
/// finishes() gives up on it; a drawn scenario takes well under 0.3 s.
constexpr rlim_t kScreenCpuSeconds = 3;

/// Scenario `i` of the campaign seeded `seed`, seeded the way
/// fuzz::run_campaign seeds its runs (`attempt` 0), in draw
/// i % kRound.size().
fuzz::Scenario draw(std::uint64_t seed, std::size_t i, std::size_t attempt) {
  const Stratum& st = kRound[i % kRound.size()];
  fuzz::GeneratorParams p = fuzz::large_geometry_params();
  p.min_pes = p.max_pes = st.pes;
  p.min_resources = p.max_resources = st.shape.resources;
  p.min_tasks = p.max_tasks = st.shape.tasks;
  const std::uint64_t run_seed = exp::derive_run_seed(seed, attempt, i, i);
  sim::Rng rng(run_seed);
  fuzz::Scenario s = fuzz::random_scenario(p, rng);
  s.seed = run_seed;
  s.name = "run" + std::to_string(i);
  return s;
}

/// Whether every pair runs `s` to the end. The software DAA (and now and
/// then the sharded DAU) can give-up/re-request forever without simulated
/// time advancing, so the 2e9-cycle limit never ends such a run (ROADMAP
/// item 4c). The pairs therefore run in a child process that the kernel
/// kills past kScreenCpuSeconds of CPU time.
bool finishes(const fuzz::Scenario& s) {
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    const rlimit cpu{kScreenCpuSeconds, kScreenCpuSeconds + 1};
    setrlimit(RLIMIT_CPU, &cpu);
    for (const char* p : kPairs) (void)fuzz::run_pair(s, fuzz::find_pair(p));
    _exit(0);
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// For each of the first `n` draws of `seed`, the first attempt whose
/// scenario finishes(): a livelocking draw is replaced by a redraw of
/// the same stratum.
std::vector<std::size_t> screen(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> attempts;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t a = 0;
    while (!finishes(draw(seed, i, a)))
      if (++a == 16) throw std::runtime_error("no finishing draw");
    attempts.push_back(a);
  }
  return attempts;
}

/// Every simulated statistic of a differential run.
std::uint64_t signature(const fuzz::DiffResult& r) {
  Digest d;
  d.bytes(r.pair);
  for (const fuzz::RunOutcome& o : r.outcomes) {
    d.bytes(o.sut);
    for (const std::uint64_t v :
         {std::uint64_t{o.ok}, std::uint64_t{o.all_finished},
          std::uint64_t{o.deadlock_detected}, std::uint64_t{o.halted},
          std::uint64_t{o.hit_limit}, std::uint64_t{o.oracle_cycle},
          o.recoveries, o.lock_acquires, o.dl_requests, o.dl_releases,
          o.allocs, o.alloc_failures, o.frees, o.sim_cycles,
          std::uint64_t{o.violations.size()}})
      d.u64(v);
  }
  d.u64(r.cross_violations.size());
  return d.value();
}

class FuzzLarge final : public Workload {
 public:
  explicit FuzzLarge(bool quick)
      : scenario_count_((quick ? 1 : kRounds) * kRound.size()) {}

  const char* name() const override { return "fuzz-large"; }

  // The screen runs once per seed, in child processes, so repeated
  // set-ups time only generating the scenarios and the warm-up.
  void setup(std::uint64_t seed) override {
    if (attempts_.empty() || seed != seed_)
      attempts_ = screen(seed, scenario_count_);
    seed_ = seed;
    scenarios_.clear();
    gen_ns_ = 0;
    for (std::size_t i = 0; i < scenario_count_; ++i) {
      const std::uint64_t t0 = cpu_ns();
      scenarios_.push_back(draw(seed, i, attempts_[i]));
      gen_ns_ += cpu_ns() - t0;
    }
    pairs_.clear();
    for (const char* p : kPairs) pairs_.push_back(&fuzz::find_pair(p));
    // Warm-up: one round.
    for (std::size_t i = 0; i < kRound.size(); ++i)
      for (const fuzz::BackendPair* p : pairs_)
        (void)fuzz::run_pair(scenarios_[i], *p);
  }

  std::size_t cells() const override {
    return scenarios_.size() * pairs_.size();
  }

  std::string pass(std::vector<double>& cell_us,
                   std::uint64_t& failed) override {
    signatures_.clear();
    std::uint64_t failing_runs = 0;
    std::size_t i = 0;
    for (const fuzz::Scenario& s : scenarios_) {
      bool run_failed = false;
      for (const fuzz::BackendPair* p : pairs_) {
        const std::uint64_t t0 = cpu_ns();
        const fuzz::DiffResult d = fuzz::run_pair(s, *p);
        cell_us[i++] = static_cast<double>(cpu_ns() - t0) * 1e-3;
        signatures_.push_back(signature(d));
        if (d.failed()) {
          ++failed;
          run_failed = true;
        }
      }
      failing_runs += run_failed ? 1 : 0;
    }
    const std::uint64_t t0 = cpu_ns();
    const std::string json = report_json(seed_, scenarios_.size(), failing_runs);
    const double share =
        static_cast<double>(cpu_ns() - t0) * 1e-3 / static_cast<double>(cells());
    for (double& us : cell_us) us += share;

    Digest d;
    d.bytes(json);
    for (const std::uint64_t sig : signatures_) d.u64(sig);
    return d.hex();
  }

  Verified verify() override {
    Verified v;
    std::size_t i = 0;
    for (const fuzz::Scenario& s : scenarios_) {
      for (const fuzz::BackendPair* p : pairs_) {
        const fuzz::DiffResult d =
            fuzz::run_pair(s, *p, "", /*engine_stats=*/true);
        ++v.cells;
        if (d.failed()) ++v.failed;
        for (const fuzz::RunOutcome& o : d.outcomes) v.add(o.engine);
        if (i >= signatures_.size() || signature(d) != signatures_[i])
          v.ok = false;
        ++i;
      }
    }
    return v;
  }

  // The reference input is one round drawn at kReferenceSeed.
  std::string reference_digest() override {
    Digest d;
    std::uint64_t failing_runs = 0;
    const std::vector<std::size_t> attempts =
        screen(kReferenceSeed, kRound.size());
    for (std::size_t i = 0; i < kRound.size(); ++i) {
      const fuzz::Scenario s = draw(kReferenceSeed, i, attempts[i]);
      bool run_failed = false;
      for (const char* p : kPairs) {
        const fuzz::DiffResult r = fuzz::run_pair(s, fuzz::find_pair(p));
        d.u64(signature(r));
        run_failed = run_failed || r.failed();
      }
      failing_runs += run_failed ? 1 : 0;
    }
    d.bytes(report_json(kReferenceSeed, kRound.size(), failing_runs));
    return d.hex();
  }

  // run_pair per cell as in pass(), then each of the pair's
  // configurations again through run_scenario on its own, so the pair's
  // cross-checking cost is run_pair minus its run_scenario calls.
  void traced_pass(std::vector<double>& cell_us,
                   std::uint64_t& failed) override {
    std::size_t i = 0;
    for (const fuzz::Scenario& s : scenarios_) {
      for (std::size_t k = 0; k < pairs_.size(); ++k) {
        const std::uint64_t t0 = cpu_ns();
        const fuzz::DiffResult d = fuzz::run_pair(s, *pairs_[k]);
        const std::uint64_t pair_ns = cpu_ns() - t0;
        std::uint64_t suts = 0;
        for (const fuzz::SystemUnderTest& sut : pairs_[k]->suts) {
          const std::uint64_t u0 = cpu_ns();
          const fuzz::RunOutcome o = fuzz::run_scenario(s, sut);
          suts += cpu_ns() - u0;
          if (!o.ok) ++failed;
        }
        sut_ns_[k] += suts;
        sut_runs_[k] += pairs_[k]->suts.size();
        check_ns_ += static_cast<double>(pair_ns) - static_cast<double>(suts);
        ++traced_cells_;
        if (signature(d) != signatures_[i]) ++failed;
        cell_us[i++] = static_cast<double>(pair_ns) * 1e-3;
      }
    }
  }

  void put_spans(Metrics& out) const override {
    put(out, "fuzz.scenario_gen_us",
        static_cast<double>(gen_ns_) * 1e-3 /
            static_cast<double>(scenarios_.size()),
        "us");
    for (std::size_t k = 0; k < kPairs.size(); ++k)
      put(out, std::string("fuzz.sut_us.") + kPairs[k],
          static_cast<double>(sut_ns_[k]) * 1e-3 /
              static_cast<double>(sut_runs_[k]),
          "us");
    put(out, "fuzz.check_us",
        check_ns_ * 1e-3 / static_cast<double>(traced_cells_), "us");
  }

 private:
  static std::string report_json(std::uint64_t seed, std::size_t runs,
                                 std::uint64_t failing_runs) {
    fuzz::CampaignReport rep;
    rep.seed = seed;
    rep.runs = runs;
    rep.pairs.assign(kPairs.begin(), kPairs.end());
    rep.failing_runs = failing_runs;
    return fuzz::campaign_report_json(rep);
  }

  std::size_t scenario_count_;
  std::vector<std::size_t> attempts_;  ///< screen(seed_, scenario_count_)
  std::uint64_t seed_ = 0;
  std::vector<fuzz::Scenario> scenarios_;
  std::vector<const fuzz::BackendPair*> pairs_;
  std::vector<std::uint64_t> signatures_;
  std::uint64_t gen_ns_ = 0;  ///< last set-up's scenario generation
  // Summed over every traced pass.
  std::array<std::uint64_t, kPairs.size()> sut_ns_{}, sut_runs_{};
  double check_ns_ = 0;
  std::uint64_t traced_cells_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_large(bool quick) {
  return std::make_unique<FuzzLarge>(quick);
}

}  // namespace perfbench

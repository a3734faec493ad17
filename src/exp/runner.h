// Parallel batch runner for experiment sweeps.
//
// Every Mpsoc owns its own Simulator, bus, memories and kernel, so the
// cells of a sweep are share-nothing and embarrassingly parallel. The
// runner fans the expanded RunSpecs out over a pool of worker threads
// pulling from an atomic cursor; results land in a pre-sized vector at
// their expansion index, which makes the report ordering — and, with
// derive_run_seed(), every simulated cycle — bit-identical no matter
// how many threads execute it or how the OS schedules them.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "exp/sweep.h"

namespace delta::exp {

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). The pool
  /// never exceeds the number of runs.
  std::size_t threads = 0;
  /// Optional progress callback, invoked once per finished run. Calls
  /// are serialized by the runner but arrive in completion order, not
  /// expansion order.
  std::function<void(const RunResult&)> on_result;
};

/// A completed sweep: results in expansion order plus execution
/// metadata. Wall time and thread count are observational — the JSON
/// serializer deliberately leaves them out so reports stay byte-stable
/// across machines and thread counts.
struct SweepReport {
  std::vector<RunResult> runs;
  double wall_seconds = 0.0;
  std::size_t threads_used = 1;

  [[nodiscard]] std::size_t failed() const {
    std::size_t n = 0;
    for (const RunResult& r : runs) n += r.ok ? 0 : 1;
    return n;
  }
};

/// Expand and execute every cell of `spec`.
[[nodiscard]] SweepReport run_sweep(const SweepSpec& spec,
                                    const RunnerOptions& opt = {});

/// Call body(i) once for every i in [0, count), on min(threads, count)
/// workers pulling indices from one atomic cursor; with one worker the
/// calls run on the calling thread, in index order. Returns after every
/// call finished. The sweep runner and the fuzz campaign share it.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace delta::exp

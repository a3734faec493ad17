#include "apps/splash.h"

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "sim/random.h"

namespace delta::apps {

namespace {

/// Builder collecting phases while a kernel executes.
class TraceBuilder {
 public:
  TraceBuilder(std::string name, double cycles_per_op) : cpo_(cycles_per_op) {
    trace_.name = std::move(name);
  }

  void alloc(std::string slot, std::uint64_t bytes) {
    flush();
    trace_.phases.push_back(
        {SplashPhase::Kind::kAlloc, bytes, std::move(slot), 0});
    ++trace_.alloc_calls;
  }
  void free(std::string slot) {
    flush();
    trace_.phases.push_back(
        {SplashPhase::Kind::kFree, 0, std::move(slot), 0});
    ++trace_.alloc_calls;
  }
  void work(std::uint64_t ops) { pending_ops_ += ops; }

  SplashTrace finish(bool verified) {
    flush();
    trace_.verified = verified;
    return std::move(trace_);
  }

 private:
  double cpo_;
  SplashTrace trace_;
  std::uint64_t pending_ops_ = 0;

  void flush() {
    if (pending_ops_ == 0) return;
    trace_.work_ops += pending_ops_;
    const auto cycles = static_cast<sim::Cycles>(
        static_cast<double>(pending_ops_) * cpo_ + 0.5);
    trace_.phases.push_back({SplashPhase::Kind::kCompute, 0, "", cycles});
    pending_ops_ = 0;
  }
};

}  // namespace

sim::Cycles SplashTrace::compute_cycles() const {
  sim::Cycles total = 0;
  for (const SplashPhase& p : phases)
    if (p.kind == SplashPhase::Kind::kCompute) total += p.cycles;
  return total;
}

rtos::Program SplashTrace::to_program() const {
  rtos::Program prog;
  prog.reserve(phases.size());  // one op per phase
  for (const SplashPhase& p : phases) {
    switch (p.kind) {
      case SplashPhase::Kind::kAlloc: prog.alloc(p.bytes, p.slot); break;
      case SplashPhase::Kind::kFree: prog.free(p.slot); break;
      case SplashPhase::Kind::kCompute: prog.compute(p.cycles); break;
    }
  }
  return prog;
}

// -------------------------------------------------------------------- LU --

SplashTrace run_lu_kernel(std::size_t n, std::size_t block,
                          double cycles_per_op) {
  if (n == 0 || block == 0 || n % block != 0)
    throw std::invalid_argument("run_lu_kernel: block must divide n");
  TraceBuilder tb("LU", cycles_per_op);
  sim::Rng rng(0xA11CE);

  // The "static array" replaced by a dynamic allocation.
  tb.alloc("matrix", n * n * sizeof(double));
  std::vector<double> a(n * n);
  for (double& v : a) v = rng.uniform() + 0.5;
  // Diagonal dominance keeps the factorization stable without pivoting
  // (SPLASH-2 LU factors without pivoting too).
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += static_cast<double>(n);
  const std::vector<double> original = a;
  tb.work(n * n);  // initialization pass

  const std::size_t nb = n / block;
  for (std::size_t kb = 0; kb < nb; ++kb) {
    const std::size_t k0 = kb * block;
    // Factor the diagonal block into a scratch "pivot" buffer.
    tb.alloc("pivot", block * block * sizeof(double));
    for (std::size_t k = k0; k < k0 + block; ++k) {
      for (std::size_t i = k + 1; i < k0 + block; ++i) {
        a[i * n + k] /= a[k * n + k];
        tb.work(2);
        for (std::size_t j = k + 1; j < k0 + block; ++j) {
          a[i * n + j] -= a[i * n + k] * a[k * n + j];
          tb.work(3);
        }
      }
    }
    // Panel updates: each off-diagonal panel uses a scratch buffer, as
    // the paper's modified benchmarks allocate their temporaries.
    for (std::size_t jb = kb + 1; jb < nb; ++jb) {
      tb.alloc("panel" + std::to_string(jb), block * block * sizeof(double));
      const std::size_t j0 = jb * block;
      // Row panel: solve L \ A(k,j).
      for (std::size_t k = k0; k < k0 + block; ++k)
        for (std::size_t i = k + 1; i < k0 + block; ++i)
          for (std::size_t j = j0; j < j0 + block; ++j) {
            a[i * n + j] -= a[i * n + k] * a[k * n + j];
            tb.work(3);
          }
      // Column panel: A(i,k) / U.
      for (std::size_t k = k0; k < k0 + block; ++k)
        for (std::size_t i = j0; i < j0 + block; ++i) {
          a[i * n + k] /= a[k * n + k];
          tb.work(2);
          for (std::size_t j = k + 1; j < k0 + block; ++j) {
            a[i * n + j] -= a[i * n + k] * a[k * n + j];
            tb.work(3);
          }
        }
      tb.free("panel" + std::to_string(jb));
    }
    // Trailing submatrix update.
    for (std::size_t ib = kb + 1; ib < nb; ++ib)
      for (std::size_t jb = kb + 1; jb < nb; ++jb) {
        const std::size_t i0 = ib * block, j0 = jb * block;
        for (std::size_t k = k0; k < k0 + block; ++k)
          for (std::size_t i = i0; i < i0 + block; ++i)
            for (std::size_t j = j0; j < j0 + block; ++j) {
              a[i * n + j] -= a[i * n + k] * a[k * n + j];
              tb.work(3);
            }
      }
    tb.free("pivot");
  }

  // Verify: L * U must reproduce the original matrix.
  bool ok = true;
  for (std::size_t i = 0; i < n && ok; i += 7) {
    for (std::size_t j = 0; j < n && ok; j += 7) {
      double sum = 0.0;
      const std::size_t kmax = std::min(i, j);
      for (std::size_t k = 0; k <= kmax; ++k) {
        const double l = (k == i) ? 1.0 : a[i * n + k];
        const double u = a[k * n + j];
        if (k <= j && k <= i) sum += (k < i ? l * u : u);
      }
      ok = std::abs(sum - original[i * n + j]) <
           1e-6 * (1.0 + std::abs(original[i * n + j]));
    }
  }
  tb.free("matrix");
  return tb.finish(ok);
}

// ------------------------------------------------------------------- FFT --

SplashTrace run_fft_kernel(std::size_t n, double cycles_per_op) {
  if (n < 2 || (n & (n - 1)) != 0)
    throw std::invalid_argument("run_fft_kernel: n must be a power of two");
  TraceBuilder tb("FFT", cycles_per_op);
  sim::Rng rng(0xF0F0);

  using Cpx = std::complex<double>;
  tb.alloc("data", n * sizeof(Cpx));
  std::vector<Cpx> x(n);
  for (Cpx& v : x) v = Cpx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  const std::vector<Cpx> input = x;
  tb.work(2 * n);

  // Bit reversal permutation (table allocated dynamically).
  tb.alloc("bitrev", n * sizeof(std::uint32_t));
  std::size_t log2n = 0;
  while ((1ULL << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b)
      if (i & (1ULL << b)) r |= 1ULL << (log2n - 1 - b);
    if (r > i) std::swap(x[i], x[r]);
    tb.work(static_cast<std::uint64_t>(log2n));
  }
  tb.free("bitrev");

  // Iterative butterflies; per-stage twiddle tables and per-chunk
  // scratch buffers model the benchmark's dynamic working set.
  for (std::size_t stage = 1; stage <= log2n; ++stage) {
    const std::size_t m = 1ULL << stage;
    tb.alloc("twiddle", (m / 2) * sizeof(Cpx));
    const double ang = -2.0 * std::numbers::pi / static_cast<double>(m);
    std::vector<Cpx> w(m / 2);
    for (std::size_t j = 0; j < m / 2; ++j)
      w[j] = Cpx(std::cos(ang * static_cast<double>(j)),
                 std::sin(ang * static_cast<double>(j)));
    tb.work(3 * (m / 2));

    // The stage performs n/2 butterflies; split them into 8 work chunks,
    // each using its own dynamically allocated scratch buffer. Butterfly
    // b belongs to group b/(m/2) at offset b%(m/2).
    const std::size_t butterflies = n / 2;
    const std::size_t chunks = 8;
    const std::size_t per_chunk = butterflies / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      tb.alloc("scratch", per_chunk * sizeof(Cpx));
      const std::size_t lo = c * per_chunk;
      const std::size_t hi = c + 1 == chunks ? butterflies : lo + per_chunk;
      for (std::size_t b = lo; b < hi; ++b) {
        const std::size_t j = b % (m / 2);
        const std::size_t k = (b / (m / 2)) * m;
        const Cpx t = w[j] * x[k + j + m / 2];
        const Cpx u = x[k + j];
        x[k + j] = u + t;
        x[k + j + m / 2] = u - t;
        tb.work(10);  // complex multiply + two adds
      }
      tb.free("scratch");
    }
    tb.free("twiddle");
  }

  // Verify against a direct DFT on a few bins.
  bool ok = true;
  for (std::size_t k = 0; k < n && ok; k += n / 8) {
    Cpx ref(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) *
                         static_cast<double>(t) / static_cast<double>(n);
      ref += input[t] * Cpx(std::cos(ang), std::sin(ang));
    }
    ok = std::abs(ref - x[k]) < 1e-6 * static_cast<double>(n);
  }
  tb.free("data");
  return tb.finish(ok);
}

// ----------------------------------------------------------------- RADIX --

SplashTrace run_radix_kernel(std::size_t keys, unsigned digit_bits,
                             double cycles_per_op) {
  if (keys == 0 || digit_bits == 0 || digit_bits > 16)
    throw std::invalid_argument("run_radix_kernel: bad parameters");
  TraceBuilder tb("RADIX", cycles_per_op);
  sim::Rng rng(0xADD1);

  tb.alloc("keys", keys * sizeof(std::uint32_t));
  tb.alloc("out", keys * sizeof(std::uint32_t));
  std::vector<std::uint32_t> a(keys), out(keys);
  for (auto& v : a) v = static_cast<std::uint32_t>(rng.next());
  tb.work(keys);

  const std::size_t radix = 1ULL << digit_bits;
  const unsigned passes = (32 + digit_bits - 1) / digit_bits;
  for (unsigned pass = 0; pass < passes; ++pass) {
    tb.alloc("hist", radix * sizeof(std::uint32_t));
    std::vector<std::uint32_t> hist(radix, 0);
    const unsigned shift = pass * digit_bits;
    // Histogram in chunks, each with its own scratch accumulator (the
    // parallel benchmark's per-processor local histograms).
    const std::size_t chunks = 16;
    for (std::size_t c = 0; c < chunks; ++c) {
      tb.alloc("local_hist", radix * sizeof(std::uint32_t));
      const std::size_t lo = c * (keys / chunks);
      const std::size_t hi = c + 1 == chunks ? keys : lo + keys / chunks;
      for (std::size_t i = lo; i < hi; ++i) {
        ++hist[(a[i] >> shift) & (radix - 1)];
        tb.work(3);
      }
      tb.free("local_hist");
    }
    // Prefix sums.
    std::uint32_t running = 0;
    for (std::size_t d = 0; d < radix; ++d) {
      const std::uint32_t c = hist[d];
      hist[d] = running;
      running += c;
      tb.work(2);
    }
    // Permute.
    for (std::size_t i = 0; i < keys; ++i) {
      out[hist[(a[i] >> shift) & (radix - 1)]++] = a[i];
      tb.work(4);
    }
    a.swap(out);
    tb.free("hist");
  }

  bool ok = true;
  for (std::size_t i = 1; i < keys; ++i) ok &= a[i - 1] <= a[i];
  tb.free("out");
  tb.free("keys");
  return tb.finish(ok);
}

// ---------------------------------------------------------------- replay --

SplashReport run_splash_on(soc::Mpsoc& soc, const SplashTrace& trace) {
  rtos::Kernel& k = soc.kernel();
  k.create_task(trace.name, 0, 1, trace.to_program());
  soc.run();
  SplashReport r;
  r.name = trace.name;
  r.total_cycles = k.last_finish_time();
  r.mgmt_cycles = k.memory().total_mgmt_cycles();
  r.mgmt_calls = k.memory().call_count();
  r.mgmt_percent = r.total_cycles == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(r.mgmt_cycles) /
                             static_cast<double>(r.total_cycles);
  r.verified = trace.verified;
  return r;
}

}  // namespace delta::apps

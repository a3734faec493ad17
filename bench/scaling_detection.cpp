// Scaling ablation: empirical complexity of every detection approach the
// paper discusses (§3.3.2, §4.2) — metered software cycles for PDDA,
// Holt O(mn), Shoshani O(mn^2), Leibfried O(N^3), and the DDU's hardware
// cycle count O(min(m,n)) — swept over square system sizes.
//
// Gate: every DDU run must finish within Ddu::iteration_bound(), the
// §4.2.1 claim of at most 2*min(m,n)-3 reduction steps plus the final
// check.
#include <cstdio>

#include "deadlock/baselines.h"
#include "deadlock/pdda.h"
#include "hw/ddu.h"
#include "rag/generators.h"

int main() {
  std::printf("Scaling ablation — detection algorithms (paper §3.3.2/§4.2):\n"
              "software cycles/ops grow O(mn)..O(N^3), while the DDU's\n"
              "cycles grow O(min(m,n)).\n");
  std::printf("\n%-6s %14s %12s %14s %14s %12s\n", "k", "PDDA(cyc)",
              "Holt(ops)", "Shoshani(ops)", "Leibfried(ops)", "DDU(cyc)");
  bool ok = true;
  for (std::size_t k : {5, 10, 20, 40, 80}) {
    // Worst-case chain+cycle state: maximal reduction depth.
    const delta::rag::StateMatrix s = delta::rag::worst_case_state(k, k);
    delta::deadlock::SoftwarePdda pdda;
    pdda.detect(s);
    const auto ddu_cycles = delta::hw::Ddu::evaluate(s).cycles;
    std::printf("%-6zu %14llu %12llu %14llu %14llu %12llu\n", k,
                static_cast<unsigned long long>(pdda.last_cycles()),
                static_cast<unsigned long long>(
                    delta::deadlock::detect_holt(s).meter.total()),
                static_cast<unsigned long long>(
                    delta::deadlock::detect_shoshani(s).meter.total()),
                static_cast<unsigned long long>(
                    delta::deadlock::detect_leibfried(s).meter.total()),
                static_cast<unsigned long long>(ddu_cycles));
    const std::size_t bound = delta::hw::Ddu(k, k).iteration_bound();
    if (ddu_cycles > bound) {
      std::printf("FAIL: k=%zu DDU took %llu cycles, bound %zu\n", k,
                  static_cast<unsigned long long>(ddu_cycles), bound);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

#include "hw/ddu_trace.h"

#include <algorithm>
#include <stdexcept>

#include "rag/reduction.h"

namespace delta::hw {

DduResult trace_ddu(const rag::StateMatrix& state, VcdWriter& vcd) {
  const std::size_t m = state.resources();
  const std::size_t n = state.processes();
  if (m > 64 || n > 64)
    throw std::invalid_argument("trace_ddu: geometry exceeds 64x64");

  const VcdVar v_clk = vcd.add_wire("clk", 1);
  const VcdVar v_titer = vcd.add_wire("t_iter", 1);
  const VcdVar v_deadlock = vcd.add_wire("deadlock", 1);
  const VcdVar v_tau_row =
      vcd.add_wire("tau_row", static_cast<unsigned>(m));
  const VcdVar v_tau_col =
      vcd.add_wire("tau_col", static_cast<unsigned>(n));
  const VcdVar v_phi_row =
      vcd.add_wire("phi_row", static_cast<unsigned>(m));
  const VcdVar v_phi_col =
      vcd.add_wire("phi_col", static_cast<unsigned>(n));
  const VcdVar v_edges = vcd.add_wire("edge_count", 16);

  rag::StateMatrix work = state;
  DduResult result;
  sim::Cycles t = 0;

  // One sample per hardware iteration: the reference reduction's node
  // classes on the current matrix, then its step (Algorithm 1).
  while (true) {
    std::uint64_t tau_row = 0, tau_col = 0, phi_row = 0, phi_col = 0;
    for (rag::ResId s = 0; s < m; ++s) {
      const rag::NodeKind k = rag::classify_row(work, s);
      if (k == rag::NodeKind::kTerminal) tau_row |= 1ULL << s;
      if (k == rag::NodeKind::kConnect) phi_row |= 1ULL << s;
    }
    for (rag::ProcId c = 0; c < n; ++c) {
      const rag::NodeKind k = rag::classify_col(work, c);
      if (k == rag::NodeKind::kTerminal) tau_col |= 1ULL << c;
      if (k == rag::NodeKind::kConnect) phi_col |= 1ULL << c;
    }
    const bool t_iter = (tau_row | tau_col) != 0;
    const bool any_phi = (phi_row | phi_col) != 0;

    vcd.change(t, v_clk, t % 2 == 0);
    vcd.change(t, v_tau_row, tau_row);
    vcd.change(t, v_tau_col, tau_col);
    vcd.change(t, v_phi_row, phi_row);
    vcd.change(t, v_phi_col, phi_col);
    vcd.change(t, v_titer, t_iter);
    vcd.change(t, v_edges, work.edge_count());

    if (!rag::reduce_step(work)) {
      result.deadlock = any_phi;
      vcd.change(t, v_deadlock, any_phi);
      break;
    }
    ++result.iterations;
    ++t;
  }

  result.cycles = std::max<std::size_t>(result.iterations, 1);
  return result;
}

}  // namespace delta::hw

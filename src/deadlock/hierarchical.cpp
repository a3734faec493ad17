#include "deadlock/hierarchical.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace delta::deadlock {

using rag::ProcId;
using rag::ResId;

namespace {

void fill_partition(std::size_t total, std::size_t clusters,
                    std::vector<std::size_t>& begins,
                    std::vector<std::uint32_t>& member_cluster) {
  begins.resize(clusters + 1);
  member_cluster.resize(total);
  for (std::size_t c = 0; c <= clusters; ++c)
    begins[c] = c * total / clusters;
  for (std::size_t c = 0; c < clusters; ++c)
    for (std::size_t i = begins[c]; i < begins[c + 1]; ++i)
      member_cluster[i] = static_cast<std::uint32_t>(c);
}

}  // namespace

ClusterMap::ClusterMap(std::size_t resources, std::size_t processes,
                       std::size_t clusters)
    : m_(resources), n_(processes) {
  if (m_ == 0 || n_ == 0)
    throw std::invalid_argument("ClusterMap: empty geometry");
  c_ = std::clamp<std::size_t>(clusters, 1, std::min(m_, n_));
  fill_partition(m_, c_, res_begin_, res_cluster_);
  fill_partition(n_, c_, proc_begin_, proc_cluster_);
}

std::size_t ClusterMap::default_clusters(std::size_t resources) {
  if (resources < 8) return 1;
  return static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(resources))));
}

HierarchicalDetector::HierarchicalDetector(ClusterMap map,
                                           SoftwareCostModel model)
    : map_(std::move(map)),
      pdda_(model),
      comp_mask_((map_.processes() + 63) / 64),
      col_of_(map_.processes()) {
  const std::size_t words = comp_mask_.size();
  proc_mask_.assign(map_.clusters() * words, 0);
  for (std::size_t c = 0; c < map_.clusters(); ++c) {
    const std::size_t b = map_.process_begin(c);
    const std::size_t e = b + map_.process_count(c);
    for (std::size_t t = b; t < e; ++t)
      proc_mask_[c * words + t / 64] |= std::uint64_t{1} << (t % 64);
  }
}

std::size_t HierarchicalDetector::find(std::size_t c) {
  while (uf_[c] != c) {
    uf_[c] = uf_[uf_[c]];
    c = uf_[c];
  }
  return c;
}

void HierarchicalDetector::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a != b) uf_[std::max(a, b)] = std::min(a, b);
}

bool HierarchicalDetector::scan_remote(const rag::StateMatrix& full) {
  const std::size_t c = map_.clusters();
  const std::size_t words = full.words_per_row();
  uf_.resize(c);
  for (std::size_t i = 0; i < c; ++i) uf_[i] = i;
  incident_.assign(c, 0);

  bool any = false;
  for (ResId s = 0; s < full.resources(); ++s) {
    const std::size_t k = map_.resource_cluster(s);
    const std::uint64_t* req = full.row_request_bits(s);
    const std::uint64_t* gnt = full.row_grant_bits(s);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t remote = (req[w] | gnt[w]) & ~proc_mask_[k * words + w];
      while (remote != 0) {
        const std::size_t t =
            w * 64 + static_cast<std::size_t>(std::countr_zero(remote));
        remote &= remote - 1;
        const std::size_t kt = map_.process_cluster(t);
        unite(k, kt);
        incident_[k] = 1;
        incident_[kt] = 1;
        any = true;
      }
    }
  }
  return any;
}

void HierarchicalDetector::copy_rows(const rag::StateMatrix& full,
                                     std::size_t rb, std::size_t count,
                                     std::size_t row0,
                                     const std::uint64_t* mask) {
  const std::size_t words = full.words_per_row();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* req = full.row_request_bits(rb + i);
    const std::uint64_t* gnt = full.row_grant_bits(rb + i);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t b = req[w] & mask[w]; b != 0; b &= b - 1)
        sub_.add_request(col_of_[w * 64 + std::countr_zero(b)], row0 + i);
      for (std::uint64_t b = gnt[w] & mask[w]; b != 0; b &= b - 1)
        sub_.add_grant(row0 + i, col_of_[w * 64 + std::countr_zero(b)]);
    }
  }
}

void HierarchicalDetector::run_local(const rag::StateMatrix& full,
                                     std::size_t c, HierOutcome& out) {
  const std::size_t rc = map_.resource_count(c);
  const std::size_t pb = map_.process_begin(c);
  const std::size_t pc = map_.process_count(c);
  for (std::size_t j = 0; j < pc; ++j) col_of_[pb + j] = j;
  sub_.reset(rc, pc);
  copy_rows(full, map_.resource_begin(c), rc, 0,
            &proc_mask_[c * comp_mask_.size()]);
  const bool dl = pdda_.detect(sub_);
  out.deadlock |= dl;
  out.local_units += 1;
  out.local_iterations = std::max(out.local_iterations,
                                  pdda_.last_iterations());
  // Hardware model per hw::Ddu: one cycle per reduction iteration, at
  // least one for the final irreducible/empty evaluation. Cluster units
  // run in parallel, so the event cost is the max, not the sum.
  out.local_unit_cycles =
      std::max<sim::Cycles>(out.local_unit_cycles,
                            std::max<std::size_t>(pdda_.last_iterations(), 1));
}

void HierarchicalDetector::run_residue(const rag::StateMatrix& full,
                                       std::size_t k, HierOutcome& out) {
  const std::size_t root = find(k);
  const std::size_t words = comp_mask_.size();

  // The component submatrix keeps the member clusters' rows and columns
  // in ascending order (clusters are contiguous index blocks). The
  // component is closed (every edge incident to its rows/columns stays
  // inside it), so the reduction residue over it matches the full
  // matrix restricted to it.
  std::size_t members = 0, rows = 0, cols = 0;
  std::fill(comp_mask_.begin(), comp_mask_.end(), 0);
  for (std::size_t c = 0; c < map_.clusters(); ++c) {
    if (find(c) != root) continue;
    ++members;
    rows += map_.resource_count(c);
    for (std::size_t j = 0; j < map_.process_count(c); ++j)
      col_of_[map_.process_begin(c) + j] = cols++;
    for (std::size_t w = 0; w < words; ++w)
      comp_mask_[w] |= proc_mask_[c * words + w];
  }
  sub_.reset(rows, cols);
  std::size_t row0 = 0;
  for (std::size_t c = 0; c < map_.clusters(); ++c) {
    if (find(c) != root) continue;
    copy_rows(full, map_.resource_begin(c), map_.resource_count(c), row0,
              comp_mask_.data());
    row0 += map_.resource_count(c);
  }

  out.deadlock |= pdda_.detect(sub_);
  out.escalated = true;
  out.residue_clusters += members;
  out.residue_resources += rows;
  out.residue_processes += cols;
  // The residue runs in software on the invoking PE; multiple residues
  // (detect_all) execute serially, so the cost is a sum.
  out.residue_sw_cycles += pdda_.last_cycles();
}

HierOutcome HierarchicalDetector::detect_event(const rag::StateMatrix& full,
                                               ResId res) {
  HierOutcome out;
  const std::size_t k = map_.resource_cluster(res);
  run_local(full, k, out);
  scan_remote(full);
  // Escalation trigger: a cycle can only leave cluster k through a
  // remote edge incident to k. No incident remote edge -> the local
  // verdict is already the monolithic verdict.
  if (incident_[k] != 0) run_residue(full, k, out);
  return out;
}

HierOutcome HierarchicalDetector::detect_all(const rag::StateMatrix& full) {
  HierOutcome out;
  for (std::size_t c = 0; c < map_.clusters(); ++c) run_local(full, c, out);
  if (scan_remote(full)) {
    done_.assign(map_.clusters(), 0);
    for (std::size_t c = 0; c < map_.clusters(); ++c) {
      const std::size_t root = find(c);
      if (incident_[c] == 0 || done_[root] != 0) continue;
      done_[root] = 1;
      run_residue(full, root, out);
    }
  }
  return out;
}

}  // namespace delta::deadlock

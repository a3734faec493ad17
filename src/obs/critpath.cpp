#include "obs/critpath.h"

#include <algorithm>
#include <map>

namespace delta::obs {

namespace {

struct Span {
  sim::Cycles begin = 0;
  sim::Cycles end = 0;
};

/// Sort by begin and merge overlapping/adjacent spans into a disjoint,
/// ordered list (empty spans removed).
std::vector<Span> normalize(std::vector<Span> spans) {
  std::vector<Span> out;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.end < b.end;
  });
  for (const Span& s : spans) {
    if (s.end <= s.begin) continue;
    if (!out.empty() && s.begin <= out.back().end)
      out.back().end = std::max(out.back().end, s.end);
    else
      out.push_back(s);
  }
  return out;
}

/// Intersection of two disjoint ordered lists (two-pointer sweep).
std::vector<Span> intersect(const std::vector<Span>& a,
                            const std::vector<Span>& b) {
  std::vector<Span> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const sim::Cycles lo = std::max(a[i].begin, b[j].begin);
    const sim::Cycles hi = std::min(a[i].end, b[j].end);
    if (lo < hi) out.push_back({lo, hi});
    if (a[i].end < b[j].end)
      ++i;
    else
      ++j;
  }
  return out;
}

/// a minus b, both disjoint ordered lists.
std::vector<Span> subtract(const std::vector<Span>& a,
                           const std::vector<Span>& b) {
  std::vector<Span> out;
  std::size_t j = 0;
  for (Span s : a) {
    while (j < b.size() && b[j].end <= s.begin) ++j;
    std::size_t k = j;
    while (k < b.size() && b[k].begin < s.end) {
      if (b[k].begin > s.begin) out.push_back({s.begin, b[k].begin});
      s.begin = std::max(s.begin, b[k].end);
      if (s.begin >= s.end) break;
      ++k;
    }
    if (s.begin < s.end) out.push_back({s.begin, s.end});
  }
  return out;
}

sim::Cycles length(const std::vector<Span>& spans) {
  sim::Cycles total = 0;
  for (const Span& s : spans) total += s.end - s.begin;
  return total;
}

/// Cycles of [begin, begin+dur) that fall inside the disjoint list.
sim::Cycles clipped_overlap(const std::vector<Span>& spans,
                            sim::Cycles begin, sim::Cycles dur) {
  sim::Cycles total = 0;
  const sim::Cycles end = begin + dur;
  for (const Span& s : spans) {
    if (s.begin >= end) break;
    const sim::Cycles lo = std::max(s.begin, begin);
    const sim::Cycles hi = std::min(s.end, end);
    if (lo < hi) total += hi - lo;
  }
  return total;
}

}  // namespace

std::vector<PhaseSpan> fold_phases(const std::vector<PhaseChange>& log,
                                   std::size_t tasks, sim::Cycles horizon) {
  std::vector<PhaseSpan> spans;
  // The change that opened each task's current phase; every task starts
  // absent at time 0.
  std::vector<PhaseChange> open(tasks);
  const auto close = [&](std::uint32_t t, sim::Cycles at) {
    const PhaseChange& o = open[t];
    const sim::Cycles end = std::min(at, horizon);
    if (o.to != TaskPhase::kAbsent && o.time < end)
      spans.push_back({t, o.time, end, o.to});
  };
  for (const PhaseChange& c : log) {
    if (c.task >= tasks) continue;
    close(c.task, c.time);
    open[c.task] = c;
  }
  for (std::uint32_t t = 0; t < tasks; ++t) close(t, horizon);
  return spans;
}

std::string object_label(WaitObject kind, std::uint64_t object,
                         const std::vector<std::string>& resource_names) {
  if ((kind == WaitObject::kResource || kind == WaitObject::kDevice) &&
      object < resource_names.size())
    return resource_names[object];
  return std::string(wait_object_name(kind)) + std::to_string(object);
}

ProfileReport build_profile(const ProfileInput& in) {
  ProfileReport report;
  report.horizon = in.horizon;
  report.events_seen = in.events.size();
  report.events_dropped = in.events_dropped;

  // Each task's running and blocked spans (in time order) and its total
  // ready time.
  struct TaskSpans {
    std::vector<Span> running;
    std::vector<Span> blocked;
    sim::Cycles ready = 0;
  };
  std::vector<TaskSpans> spans(in.tasks.size());
  for (const PhaseSpan& s :
       fold_phases(in.phases, in.tasks.size(), in.horizon)) {
    switch (s.phase) {
      case TaskPhase::kRunning:
        spans[s.task].running.push_back({s.begin, s.end});
        break;
      case TaskPhase::kBlocked:
        spans[s.task].blocked.push_back({s.begin, s.end});
        break;
      case TaskPhase::kReady: spans[s.task].ready += s.end - s.begin; break;
      case TaskPhase::kAbsent: break;
    }
  }

  // Index running spans per PE (one task runs per PE at a time) so spin
  // events — stamped with the PE, not the task — can be attributed.
  struct PeSpan {
    sim::Cycles begin, end;
    std::uint32_t task;
  };
  std::map<std::uint16_t, std::vector<PeSpan>> pe_running;
  for (std::size_t t = 0; t < in.tasks.size(); ++t)
    for (const Span& s : spans[t].running)
      pe_running[in.tasks[t].pe].push_back(
          {s.begin, s.end, static_cast<std::uint32_t>(t)});
  for (auto& [pe, v] : pe_running)
    std::sort(v.begin(), v.end(), [](const PeSpan& a, const PeSpan& b) {
      return a.begin < b.begin;
    });
  auto task_running_at = [&](std::uint16_t pe,
                             sim::Cycles at) -> std::int64_t {
    const auto it = pe_running.find(pe);
    if (it == pe_running.end()) return -1;
    const std::vector<PeSpan>& v = it->second;
    auto hi = std::upper_bound(
        v.begin(), v.end(), at,
        [](sim::Cycles t, const PeSpan& s) { return t < s.begin; });
    if (hi == v.begin()) return -1;
    --hi;
    return at < hi->end ? static_cast<std::int64_t>(hi->task) : -1;
  };

  // Fold events into per-task spin / kernel-service mark lists, per-lock
  // spin totals, and the raw wait-for edge list.
  std::vector<std::vector<Span>> spin_marks(in.tasks.size());
  std::vector<std::vector<Span>> service_marks(in.tasks.size());
  std::map<std::uint64_t, sim::Cycles> spin_by_lock;
  struct RawEdge {
    std::uint32_t waiter;
    WaitForInfo info;
    sim::Cycles at;
  };
  std::vector<RawEdge> raw_edges;

  for (const Event& e : in.events) {
    switch (e.kind) {
      case EventKind::kLockSpin: {
        const std::int64_t t = task_running_at(e.pe, e.start);
        if (t < 0) break;
        spin_marks[static_cast<std::size_t>(t)].push_back(
            {e.start, e.start + e.dur});
        spin_by_lock[e.a0] += clipped_overlap(
            spans[static_cast<std::size_t>(t)].running, e.start, e.dur);
        break;
      }
      case EventKind::kKernelService: {
        if (e.a0 >= in.tasks.size()) break;  // idle-PE service
        service_marks[e.a0].push_back({e.start, e.start + e.dur});
        break;
      }
      case EventKind::kContextSwitch: {
        if (e.a0 >= in.tasks.size()) break;
        service_marks[e.a0].push_back({e.start, e.start + e.dur});
        break;
      }
      case EventKind::kWaitFor: {
        if (e.a0 >= in.tasks.size()) break;
        raw_edges.push_back({static_cast<std::uint32_t>(e.a0),
                             unpack_wait_for(e.a1), e.start});
        break;
      }
      default: break;
    }
  }

  // Buckets: partition each task's running time with spin taking
  // priority over service where marks overlap, the remainder being real
  // work. Intersecting every mark with the running spans first is what
  // makes the buckets tile the total exactly.
  for (std::size_t t = 0; t < in.tasks.size(); ++t) {
    TaskBuckets b;
    b.task = static_cast<std::uint32_t>(t);
    b.name = in.tasks[t].name;
    b.pe = in.tasks[t].pe;
    const std::vector<Span> running = normalize(spans[t].running);
    const std::vector<Span> spin =
        intersect(normalize(spin_marks[t]), running);
    const std::vector<Span> service =
        subtract(intersect(normalize(service_marks[t]), running), spin);
    const sim::Cycles running_total = length(running);
    b.spin = length(spin);
    b.service = length(service);
    b.run = running_total - b.spin - b.service;
    b.blocked = length(normalize(spans[t].blocked));
    b.sched_wait = spans[t].ready;
    b.overhead = b.sched_wait + b.service;
    b.total = running_total + b.blocked + b.sched_wait;
    report.tasks.push_back(std::move(b));
  }

  // Wait-for spans: each edge event fires at the instant its waiter
  // blocks, so the matching blocked span starts exactly at the event
  // time (unless the span fell past the horizon).
  for (const RawEdge& e : raw_edges) {
    const std::vector<Span>& blocked = spans[e.waiter].blocked;
    const auto it = std::lower_bound(
        blocked.begin(), blocked.end(), e.at,
        [](const Span& s, sim::Cycles at) { return s.begin < at; });
    if (it == blocked.end() || it->begin != e.at) continue;
    WaitSpan w;
    w.waiter = e.waiter;
    w.has_holder = e.info.has_holder && e.info.holder < in.tasks.size();
    w.holder = e.info.holder;
    w.object_kind = e.info.kind;
    w.object = e.info.object;
    w.begin = it->begin;
    w.end = it->end;
    report.wait_spans.push_back(w);
  }

  // Contention ranking over (kind, object).
  std::map<std::pair<std::uint8_t, std::uint64_t>, ContentionEntry> agg;
  auto entry = [&](WaitObject kind, std::uint64_t object) -> ContentionEntry& {
    ContentionEntry& c =
        agg[{static_cast<std::uint8_t>(kind), object}];
    c.kind = kind;
    c.object = object;
    return c;
  };
  for (const WaitSpan& w : report.wait_spans) {
    ContentionEntry& c = entry(w.object_kind, w.object);
    ++c.waits;
    c.blocked_cycles += w.end - w.begin;
  }
  for (const auto& [lk, cycles] : spin_by_lock)
    entry(WaitObject::kLock, lk).spin_cycles += cycles;
  for (auto& [key, c] : agg) {
    c.label = object_label(c.kind, c.object, in.resource_names);
    report.contention.push_back(std::move(c));
  }
  std::sort(report.contention.begin(), report.contention.end(),
            [](const ContentionEntry& a, const ContentionEntry& b) {
              const sim::Cycles wa = a.blocked_cycles + a.spin_cycles;
              const sim::Cycles wb = b.blocked_cycles + b.spin_cycles;
              if (wa != wb) return wa > wb;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.object < b.object;
            });

  // Longest blocking chain: weight(edge) = its span length plus the
  // heaviest overlapping edge whose waiter is this edge's holder.
  // Memoized DFS; edges already on the stack are skipped, which breaks
  // the (rare, deadlock-shaped) cycles deterministically.
  const std::size_t n = report.wait_spans.size();
  std::vector<std::vector<std::size_t>> by_waiter(in.tasks.size());
  for (std::size_t i = 0; i < n; ++i)
    by_waiter[report.wait_spans[i].waiter].push_back(i);
  std::vector<sim::Cycles> weight(n, 0);
  std::vector<std::int64_t> next(n, -1);
  std::vector<std::uint8_t> state(n, 0);  // 0 new, 1 on stack, 2 done
  auto dfs = [&](auto&& self, std::size_t i) -> sim::Cycles {
    if (state[i] == 2) return weight[i];
    if (state[i] == 1) return 0;  // cycle; treat as leaf
    state[i] = 1;
    const WaitSpan& w = report.wait_spans[i];
    sim::Cycles best = 0;
    if (w.has_holder) {
      for (const std::size_t j : by_waiter[w.holder]) {
        const WaitSpan& s = report.wait_spans[j];
        if (s.begin >= w.end || s.end <= w.begin) continue;
        if (state[j] == 1) continue;
        const sim::Cycles c = self(self, j);
        if (c > best) {
          best = c;
          next[i] = static_cast<std::int64_t>(j);
        }
      }
    }
    weight[i] = (w.end - w.begin) + best;
    state[i] = 2;
    return weight[i];
  };
  std::int64_t head = -1;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Cycles c = dfs(dfs, i);
    if (c > report.critical_path_cycles) {
      report.critical_path_cycles = c;
      head = static_cast<std::int64_t>(i);
    }
  }
  for (std::int64_t i = head; i >= 0; i = next[static_cast<std::size_t>(i)])
    report.critical_path.push_back(report.wait_spans[static_cast<std::size_t>(i)]);

  return report;
}

}  // namespace delta::obs

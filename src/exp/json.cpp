#include "exp/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace delta::exp {

// ------------------------------------------------------------ writer --

void JsonWriter::comma_and_indent() {
  if (pending_key_) {  // value directly after "key":
    pending_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  }
}

void JsonWriter::append_escaped(const std::string& s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default: {
        // Escape through unsigned char: a signed `c` would sign-extend in
        // snprintf and emit garbage like "￿ff8e" for bytes >= 0x80.
        // Bytes outside printable ASCII are \u-escaped (treated as
        // Latin-1), so the output is always pure-ASCII valid JSON even
        // for arbitrary byte strings.
        const unsigned int u = static_cast<unsigned char>(c);
        if (u < 0x20 || u >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out_ += buf;
        } else {
          out_ += c;
        }
      }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma_and_indent();
  out_ += '{';
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had = has_items_.back();
  has_items_.pop_back();
  if (had) {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_and_indent();
  out_ += '[';
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had = has_items_.back();
  has_items_.pop_back();
  if (had) {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  comma_and_indent();
  append_escaped(k);
  out_ += ": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma_and_indent();
  append_escaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string(v));
}

JsonWriter& JsonWriter::value(double v) {
  comma_and_indent();
  // JSON has no NaN/Infinity literals; "%.12g" would happily print them
  // and corrupt the document for strict parsers and report diffing.
  if (std::isfinite(v)) {
    out_ += format_double(v);
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_and_indent();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma_and_indent();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma_and_indent();
  out_ += std::to_string(v);
  return *this;
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// ------------------------------------------------------------ report --

namespace {

void write_sample_set(JsonWriter& w, const sim::SampleSet& s) {
  w.begin_object();
  w.key("count").value(s.count());
  w.key("mean").value(s.mean());
  w.key("min").value(s.min());
  w.key("max").value(s.max());
  w.key("stddev").value(s.stddev());
  w.key("p95").value(s.percentile(0.95));
  w.end_object();
}

void write_accumulator(JsonWriter& w, const sim::Accumulator& a) {
  w.begin_object();
  w.key("count").value(a.count());
  w.key("mean").value(a.mean());
  w.key("min").value(a.min());
  w.key("max").value(a.max());
  w.key("stddev").value(a.stddev());
  w.end_object();
}

void write_log2_histogram(JsonWriter& w, const sim::Log2Histogram& h) {
  w.begin_object();
  w.key("count").value(h.count);
  w.key("sum").value(h.sum);
  w.key("max").value(h.max);
  // Power-of-two buckets, trimmed to the used prefix: buckets[0] holds
  // zeros, buckets[i] holds [2^(i-1), 2^i).
  w.key("buckets").begin_array();
  const std::size_t used = h.used();
  for (std::size_t i = 0; i < used; ++i) w.value(h.buckets[i]);
  w.end_array();
  w.end_object();
}

/// Labels for wait-span objects, recovered from the contention table
/// (which aggregates every annotated span, so every (kind, object) pair
/// a span can mention is present).
std::map<std::pair<std::uint8_t, std::uint64_t>, const std::string*>
contention_labels(const obs::ProfileReport& p) {
  std::map<std::pair<std::uint8_t, std::uint64_t>, const std::string*> out;
  for (const obs::ContentionEntry& c : p.contention)
    out[{static_cast<std::uint8_t>(c.kind), c.object}] = &c.label;
  return out;
}

}  // namespace

void write_profile(JsonWriter& w, const obs::ProfileReport& p,
                   const obs::TimeSeries& ts) {
  const auto labels = contention_labels(p);
  const auto span_label = [&](const obs::WaitSpan& s) -> std::string {
    const auto it =
        labels.find({static_cast<std::uint8_t>(s.object_kind), s.object});
    if (it != labels.end()) return *it->second;
    return obs::object_label(s.object_kind, s.object, {});
  };
  const auto task_name = [&](std::uint32_t id) -> std::string {
    return id < p.tasks.size() ? p.tasks[id].name : std::to_string(id);
  };

  w.begin_object();
  w.key("horizon").value(static_cast<std::uint64_t>(p.horizon));
  w.key("events_seen").value(p.events_seen);
  w.key("events_dropped").value(p.events_dropped);
  w.key("tasks").begin_array();
  for (const obs::TaskBuckets& t : p.tasks) {
    w.begin_object();
    w.key("task").value(static_cast<std::uint64_t>(t.task));
    w.key("name").value(t.name);
    w.key("pe").value(static_cast<std::uint64_t>(t.pe));
    w.key("total").value(static_cast<std::uint64_t>(t.total));
    w.key("run").value(static_cast<std::uint64_t>(t.run));
    w.key("spin").value(static_cast<std::uint64_t>(t.spin));
    w.key("blocked").value(static_cast<std::uint64_t>(t.blocked));
    w.key("overhead").value(static_cast<std::uint64_t>(t.overhead));
    w.key("sched_wait").value(static_cast<std::uint64_t>(t.sched_wait));
    w.key("service").value(static_cast<std::uint64_t>(t.service));
    w.end_object();
  }
  w.end_array();
  w.key("wait_spans").value(static_cast<std::uint64_t>(p.wait_spans.size()));
  w.key("critical_path_cycles")
      .value(static_cast<std::uint64_t>(p.critical_path_cycles));
  w.key("critical_path").begin_array();
  for (const obs::WaitSpan& s : p.critical_path) {
    w.begin_object();
    w.key("waiter").value(static_cast<std::uint64_t>(s.waiter));
    w.key("waiter_name").value(task_name(s.waiter));
    w.key("object").value(span_label(s));
    w.key("kind").value(obs::wait_object_name(s.object_kind));
    if (s.has_holder) {
      w.key("holder").value(static_cast<std::uint64_t>(s.holder));
      w.key("holder_name").value(task_name(s.holder));
    }
    w.key("begin").value(static_cast<std::uint64_t>(s.begin));
    w.key("end").value(static_cast<std::uint64_t>(s.end));
    w.end_object();
  }
  w.end_array();
  w.key("contention").begin_array();
  for (const obs::ContentionEntry& c : p.contention) {
    w.begin_object();
    w.key("object").value(c.label);
    w.key("kind").value(obs::wait_object_name(c.kind));
    w.key("waits").value(c.waits);
    w.key("blocked_cycles").value(static_cast<std::uint64_t>(c.blocked_cycles));
    w.key("spin_cycles").value(static_cast<std::uint64_t>(c.spin_cycles));
    w.end_object();
  }
  w.end_array();
  // Series summary: per-track integrals, not raw samples — the full
  // resolution lives in the Chrome export's counter tracks.
  w.key("timeseries").begin_object();
  w.key("period").value(static_cast<std::uint64_t>(ts.period()));
  w.key("samples").value(static_cast<std::uint64_t>(ts.samples().size()));
  w.key("totals").begin_object();
  for (std::size_t i = 0; i < ts.tracks().size(); ++i)
    w.key(ts.tracks()[i]).value(ts.total(i));
  w.end_object();
  w.end_object();
  w.end_object();
}

void write_engine_report(JsonWriter& w, const soc::EngineReport& e,
                         const obs::TimeSeries& series) {
  w.begin_object();
  w.key("events_dispatched").value(e.events_dispatched);
  const sim::EngineStats& q = e.queue;
  w.key("queue").begin_object();
  w.key("pops").value(q.pops);
  w.key("dispatch_inline").value(q.dispatch_inline);
  w.key("dispatch_boxed").value(q.dispatch_boxed);
  w.key("cancels").begin_object();
  w.key("live").value(q.cancels);
  w.key("dead").value(q.cancels_dead);
  w.end_object();
  w.key("heap").begin_object();
  w.key("prunes").value(q.heap_prunes);
  w.key("compactions").value(q.heap_compactions);
  w.end_object();
  w.key("memory").begin_object();
  w.key("slab_peak").value(q.slab_peak);
  w.key("freelist_peak").value(q.freelist_peak);
  w.key("footprint_peak").value(q.footprint_peak);
  w.key("footprint_bytes").value(e.queue_footprint_bytes);
  w.end_object();
  w.key("live_size");
  write_log2_histogram(w, q.live_size);
  w.end_object();
  const rtos::EngineCounters& k = e.kernel;
  w.key("kernel").begin_object();
  w.key("service_windows").value(k.service_windows);
  w.key("service_window_cycles");
  write_log2_histogram(w, k.service_window_cycles);
  w.key("reschedule").begin_object();
  w.key("calls").value(k.resched_calls);
  w.key("fastout_in_service").value(k.resched_fastout_in_service);
  w.key("fastout_idle").value(k.resched_fastout_idle);
  w.key("scans").value(k.resched_scans);
  w.end_object();
  w.key("give_up").begin_object();
  w.key("events").value(k.give_up_events);
  w.key("resources").value(k.give_up_resources);
  w.key("episodes").value(k.give_up_episodes);
  w.key("episode_len");
  write_log2_histogram(w, k.give_up_episode_len);
  w.end_object();
  w.end_object();
  if (!series.empty()) {
    // The engine gauge tracks are instantaneous (queue depth,
    // footprint), so summarize with per-track peaks; the full
    // resolution lives in the Chrome export's counter tracks.
    w.key("timeseries").begin_object();
    w.key("period").value(static_cast<std::uint64_t>(series.period()));
    w.key("samples")
        .value(static_cast<std::uint64_t>(series.samples().size()));
    w.key("peaks").begin_object();
    for (std::size_t i = 0; i < series.tracks().size(); ++i) {
      std::uint64_t peak = 0;
      for (const obs::TimeSeries::Sample& s : series.samples())
        peak = std::max(peak, s.values[i]);
      w.key(series.tracks()[i]).value(peak);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
}

namespace {

void write_run(JsonWriter& w, const RunResult& r, bool host_times) {
  w.begin_object();
  w.key("config").value(r.config);
  w.key("workload").value(r.workload);
  w.key("seed").value(r.seed);
  w.key("run_seed").value(r.run_seed);
  w.key("ok").value(r.ok);
  if (!r.ok) {
    w.key("error").value(r.error);
    w.end_object();
    return;
  }
  w.key("sim_cycles").value(static_cast<std::uint64_t>(r.sim_cycles));
  w.key("last_finish").value(static_cast<std::uint64_t>(r.last_finish));
  w.key("app_run_time").value(static_cast<std::uint64_t>(r.app_run_time));
  w.key("all_finished").value(r.all_finished);
  w.key("deadlock_detected").value(r.deadlock_detected);
  w.key("deadlock_time").value(static_cast<std::uint64_t>(r.deadlock_time));
  w.key("recoveries").value(r.recoveries);
  w.key("deadline_misses")
      .value(static_cast<std::uint64_t>(r.deadline_misses));
  w.key("algorithm").begin_object();
  w.key("invocations").value(r.algorithm_invocations);
  w.key("avg_cycles").value(r.algorithm_avg);
  w.end_object();
  w.key("lock_latency");
  write_sample_set(w, r.lock_latency);
  w.key("lock_delay");
  write_sample_set(w, r.lock_delay);
  w.key("alloc_latency");
  write_sample_set(w, r.alloc_latency);
  w.key("memory").begin_object();
  w.key("mgmt_cycles").value(static_cast<std::uint64_t>(r.mgmt_cycles));
  w.key("calls").value(r.mgmt_calls);
  w.end_object();
  // The full registry snapshot. Keys are already name-sorted
  // (obs::MetricsRegistry iterates a std::map), so the bytes stay
  // deterministic across thread counts.
  w.key("metrics").begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : r.metrics.counters)
    w.key(name).value(value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : r.metrics.histograms) {
    w.key(name).begin_object();
    w.key("count").value(h.count);
    w.key("mean").value(h.mean);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("stddev").value(h.stddev);
    w.key("p95").value(h.p95);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  // The engine block sits after "metrics" — never first in the run
  // object — so stripping it (with its preceding comma) restores the
  // stats-off bytes exactly; scripts/strip_engine_stats.py relies on
  // that for the golden neutrality check.
  if (r.engine.enabled) {
    w.key("engine");
    write_engine_report(w, r.engine, r.engine_timeseries);
    if (host_times) w.key("host_cpu_ns").value(r.host_cpu_ns);
  }
  if (r.has_profile) {
    w.key("profile");
    write_profile(w, r.profile, r.timeseries);
  }
  w.end_object();
}

}  // namespace

std::string profile_to_json(const obs::ProfileReport& profile,
                            const obs::TimeSeries& series) {
  JsonWriter w;
  write_profile(w, profile, series);
  std::string out = w.str();
  out += '\n';
  return out;
}

std::string report_to_json(const SweepSpec& spec,
                           const SweepReport& report) {
  JsonWriter w;
  w.begin_object();

  w.key("sweep").begin_object();
  w.key("configs").begin_array();
  for (const ConfigPoint& c : spec.configs) w.value(c.name);
  w.end_array();
  w.key("workloads").begin_array();
  for (const Workload& wl : spec.workloads) w.value(wl.name);
  w.end_array();
  w.key("seeds").begin_array();
  for (const std::uint64_t s : spec.seeds) w.value(s);
  w.end_array();
  w.key("base_seed").value(spec.base_seed);
  w.key("run_limit").value(static_cast<std::uint64_t>(spec.run_limit));
  w.key("runs").value(static_cast<std::uint64_t>(report.runs.size()));
  w.end_object();

  w.key("runs").begin_array();
  for (const RunResult& r : report.runs)
    write_run(w, r, spec.engine_host_times);
  w.end_array();

  // Aggregates across seeds, keyed by (config, workload) in expansion
  // order. std::map iteration would sort by name; preserve run order
  // instead so the report reads like the spec.
  struct Agg {
    std::size_t runs = 0;
    sim::Accumulator last_finish;
    sim::Accumulator app_run_time;
    sim::Accumulator lock_latency_mean;
    sim::Accumulator algorithm_avg;
    std::size_t finished = 0;
    std::size_t deadlocked = 0;
  };
  std::vector<std::pair<std::pair<std::string, std::string>, Agg>> aggs;
  for (const RunResult& r : report.runs) {
    if (!r.ok) continue;
    const auto key = std::make_pair(r.config, r.workload);
    Agg* agg = nullptr;
    for (auto& [k, a] : aggs)
      if (k == key) agg = &a;
    if (!agg) {
      aggs.emplace_back(key, Agg{});
      agg = &aggs.back().second;
    }
    ++agg->runs;
    agg->last_finish.add(static_cast<double>(r.last_finish));
    agg->app_run_time.add(static_cast<double>(r.app_run_time));
    agg->lock_latency_mean.add(r.lock_latency.mean());
    agg->algorithm_avg.add(r.algorithm_avg);
    agg->finished += r.all_finished ? 1 : 0;
    agg->deadlocked += r.deadlock_detected ? 1 : 0;
  }

  w.key("aggregates").begin_array();
  for (const auto& [key, agg] : aggs) {
    w.begin_object();
    w.key("config").value(key.first);
    w.key("workload").value(key.second);
    w.key("runs").value(static_cast<std::uint64_t>(agg.runs));
    w.key("finished").value(static_cast<std::uint64_t>(agg.finished));
    w.key("deadlocked").value(static_cast<std::uint64_t>(agg.deadlocked));
    w.key("last_finish");
    write_accumulator(w, agg.last_finish);
    w.key("app_run_time");
    write_accumulator(w, agg.app_run_time);
    w.key("lock_latency_mean");
    write_accumulator(w, agg.lock_latency_mean);
    w.key("algorithm_avg");
    write_accumulator(w, agg.algorithm_avg);
    w.end_object();
  }
  w.end_array();

  // Campaign-level engine roll-up: merged queue/kernel counters over
  // every ok run, plus (opt-in, nondeterministic) the host-time
  // distribution and slowest-run ranking. Placed after "aggregates" so
  // the strip script can remove it and recover the stats-off bytes.
  if (spec.engine_stats) {
    soc::EngineReport total;
    std::uint64_t with_stats = 0;
    for (const RunResult& r : report.runs) {
      if (!r.ok || !r.engine.enabled) continue;
      ++with_stats;
      total.merge(r.engine);
    }
    w.key("engine").begin_object();
    w.key("runs").value(with_stats);
    w.key("totals");
    write_engine_report(w, total, obs::TimeSeries{});
    if (spec.engine_host_times) {
      sim::SampleSet times;
      std::vector<const RunResult*> ranked;
      for (const RunResult& r : report.runs) {
        if (!r.ok || !r.engine.enabled) continue;
        times.add(static_cast<double>(r.host_cpu_ns));
        ranked.push_back(&r);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const RunResult* a, const RunResult* b) {
                  if (a->host_cpu_ns != b->host_cpu_ns)
                    return a->host_cpu_ns > b->host_cpu_ns;
                  return a->index < b->index;  // stable tie-break
                });
      if (ranked.size() > 5) ranked.resize(5);
      w.key("host").begin_object();
      w.key("cpu_ns_p50").value(times.percentile(0.50));
      w.key("cpu_ns_p99").value(times.percentile(0.99));
      w.key("cpu_ns_mean").value(times.mean());
      w.key("cpu_ns_max").value(times.max());
      w.key("slowest").begin_array();
      for (const RunResult* r : ranked) {
        w.begin_object();
        w.key("config").value(r->config);
        w.key("workload").value(r->workload);
        w.key("seed").value(r->seed);
        w.key("host_cpu_ns").value(r->host_cpu_ns);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }

  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

}  // namespace delta::exp

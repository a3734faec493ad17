#include "exp/json.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace delta::exp {
namespace {

std::string one_value_string(const std::string& s) {
  JsonWriter w;
  w.value(s);
  return w.str();
}

TEST(JsonWriter, EscapesControlCharacters) {
  EXPECT_EQ(one_value_string("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(one_value_string("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(one_value_string(std::string("a\x01") + "b"), "\"a\\u0001b\"");
  EXPECT_EQ(one_value_string("a\x1f"), "\"a\\u001f\"");
  // Escapes at the edges of a string and next to each other.
  EXPECT_EQ(one_value_string("\nab"), "\"\\nab\"");
  EXPECT_EQ(one_value_string("ab\r"), "\"ab\\r\"");
  EXPECT_EQ(one_value_string("a\n\tb"), "\"a\\n\\tb\"");
  EXPECT_EQ(one_value_string(std::string("\x00\x1f", 2)),
            "\"\\u0000\\u001f\"");
  // A long plain run on either side of an escape.
  const std::string run(1000, 'x');
  EXPECT_EQ(one_value_string(run + "\t" + run),
            "\"" + run + "\\t" + run + "\"");
  EXPECT_EQ(one_value_string(run), "\"" + run + "\"");
}

TEST(JsonWriter, EscapesNonAsciiBytesAsLatin1) {
  // Regression: bytes >= 0x80 are negative in a signed char; they must
  // escape through unsigned char (never sign-extend) and never pass
  // through raw, so the document stays pure-ASCII valid JSON.
  EXPECT_EQ(one_value_string("caf\x8e"), "\"caf\\u008e\"");
  EXPECT_EQ(one_value_string("\xff"), "\"\\u00ff\"");
  EXPECT_EQ(one_value_string("\x80\x81"), "\"\\u0080\\u0081\"");
  EXPECT_EQ(one_value_string("\x7f"), "\"\\u007f\"");  // DEL too
}

TEST(JsonWriter, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(one_value_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(one_value_string("\"a"), "\"\\\"a\"");
  EXPECT_EQ(one_value_string("a\\"), "\"a\\\\\"");
  EXPECT_EQ(one_value_string("\"\\"), "\"\\\"\\\\\"");
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  // JSON has no NaN/Infinity literals; emitting them corrupts the
  // report for strict parsers.
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[\n  null,\n  null,\n  null,\n  1.5\n]");
}

/// The reference for the report's number contract: printf "%.12g".
std::string printf_g12(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Checks format_double and JsonWriter::value(double) against printf for
/// every finite input. Reports the first few mismatches; returns the count.
std::size_t printf_mismatches(const std::vector<double>& inputs) {
  std::size_t bad = 0;
  for (const double v : inputs) {
    if (!std::isfinite(v)) continue;
    const std::string want = printf_g12(v);
    const std::string formatted = format_double(v);
    JsonWriter w;
    w.value(v);
    if (formatted == want && w.str() == want) continue;
    if (++bad <= 5)
      ADD_FAILURE() << std::hexfloat << v << ": printf " << want
                    << ", format_double " << formatted << ", value "
                    << w.str();
  }
  return bad;
}

TEST(JsonWriter, FiniteDoublesFormatLikePrintf) {
  std::mt19937_64 rng(0x5eed);
  std::vector<double> in = {
      0.1, 1e300, 0.0, -0.0, 1.0, -1.0, 0.5, 1e12 - 1, -(1e12 - 1), 1e12,
      -1e12, 1e12 + 1, 999999999999.5, -999999999999.5, 123456789012.25,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), DBL_MAX, -DBL_MAX,
      9007199254740992.0, -9007199254740992.0};
  // Random bit patterns: every exponent, subnormals included.
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    in.push_back(v);
  }
  // Integers across +-2^53, at every width, plus powers of ten and their
  // neighbours (the 12-digit boundary of the integral path).
  for (int width = 1; width <= 53; ++width) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t n = (rng() >> (64 - width)) | (1ULL << (width - 1));
      in.push_back(static_cast<double>(n));
      in.push_back(-static_cast<double>(n));
    }
  }
  double p10 = 1;
  for (int k = 0; k <= 16; ++k, p10 *= 10)
    for (const double d : {-1.0, 0.0, 1.0})
      for (const double sign : {1.0, -1.0}) in.push_back(sign * (p10 + d));
  // Dyadic fractions (exact in binary, up to 60 fraction bits) and other
  // fractions (inexact), across magnitudes a report can hold.
  for (int shift = 1; shift <= 60; ++shift) {
    for (int i = 0; i < 2000; ++i) {
      const double n = static_cast<double>(rng() >> 11);
      in.push_back(std::ldexp(n, -shift));
      in.push_back(-std::ldexp(n, -shift - 1));
    }
  }
  for (int i = 0; i < 200'000; ++i) {
    const double p = static_cast<double>(rng() % 1'000'000'007);
    const double q = static_cast<double>(rng() % 9999 + 3);
    const int exp10 = static_cast<int>(rng() % 41) - 20;
    in.push_back(p / q * std::pow(10.0, exp10));
  }
  EXPECT_EQ(printf_mismatches(in), 0U) << "of " << in.size() << " inputs";
}

TEST(ReportToJson, IncludesMetricsRegistrySection) {
  obs::MetricsRegistry reg;
  reg.counter("bus.words").add(1234);
  reg.counter("lock.acquires").add(7);
  reg.histogram("lock.latency").add(10.0);
  reg.histogram("lock.latency").add(30.0);

  SweepSpec spec;
  SweepReport report;
  RunResult r;
  r.ok = true;
  r.config = "RTOS4";
  r.workload = "mixed";
  r.metrics = reg.snapshot();
  report.runs.push_back(r);

  const std::string json = report_to_json(spec, report);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"bus.words\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"lock.acquires\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lock.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  // Failed runs carry no metrics object.
  RunResult bad;
  bad.ok = false;
  bad.error = "boom";
  SweepReport failed;
  failed.runs.push_back(bad);
  const std::string failed_json = report_to_json(spec, failed);
  EXPECT_EQ(failed_json.find("\"metrics\""), std::string::npos);
}

TEST(ReportToJson, IncludesProfileBlockWhenAttached) {
  RunResult r;
  r.ok = true;
  r.config = "RTOS4";
  r.workload = "mixed";
  r.has_profile = true;
  r.profile.horizon = 1000;
  r.profile.events_seen = 5;
  obs::TaskBuckets b;
  b.task = 0;
  b.name = "t0";
  b.total = 1000;
  b.run = 600;
  b.spin = 50;
  b.blocked = 250;
  b.overhead = 100;
  b.sched_wait = 80;
  b.service = 20;
  r.profile.tasks.push_back(b);
  obs::ContentionEntry c;
  c.kind = obs::WaitObject::kLock;
  c.object = 3;
  c.label = "lock3";
  c.waits = 2;
  c.blocked_cycles = 250;
  r.profile.contention.push_back(c);
  r.timeseries = obs::TimeSeries(100, {"pe0.busy_cycles"});
  r.timeseries.append(100, {60});

  SweepSpec spec;
  SweepReport report;
  report.runs.push_back(r);
  const std::string json = report_to_json(spec, report);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path_cycles\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"sched_wait\": 80"), std::string::npos);
  EXPECT_NE(json.find("\"lock3\""), std::string::npos);
  EXPECT_NE(json.find("\"pe0.busy_cycles\": 60"), std::string::npos);

  // The standalone document is the same block plus a trailing newline.
  const std::string doc = profile_to_json(r.profile, r.timeseries);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.back(), '\n');
  EXPECT_NE(doc.find("\"run\": 600"), std::string::npos);

  // Runs without a profile carry no profile key.
  RunResult bare;
  bare.ok = true;
  SweepReport no_profile;
  no_profile.runs.push_back(bare);
  EXPECT_EQ(report_to_json(spec, no_profile).find("\"profile\""),
            std::string::npos);
}

}  // namespace
}  // namespace delta::exp

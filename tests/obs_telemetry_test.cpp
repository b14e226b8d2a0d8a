// Production-telemetry subsystem: histogram overflow accounting,
// Prometheus text exposition (sanitization, labels, kind conflicts,
// cumulative histogram invariants), structured NDJSON logging (shape,
// level gate, per-site rate limiting, fork fragment merge, query-id
// scopes) and the crash flight recorder (ring parse, fork +
// fatal-signal marker, clean-exit unlink).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/fork.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "test_util.h"

namespace performa::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += stem;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_metrics_for_test();
    reset_log_for_test();
    disable_flight();
  }
  void TearDown() override {
    reset_metrics_for_test();
    reset_log_for_test();
    disable_flight();
  }
};

// ---------------------------------------------------------------- histogram

TEST_F(TelemetryTest, HistogramOverflowBinTracksSamplesAboveTopBucket) {
  Histogram& h = histogram("tel.h.overflow");
  const double big = std::ldexp(1.0, 40);  // >= 2^32: above every bucket
  h.record(0.5);
  h.record(big);
  h.record(2.0 * big);

  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.overflow_max(), 2.0 * big);
  // The regression this guards: quantiles landing in the overflow bin
  // must report the true maximum, not clamp to the last finite edge.
  EXPECT_EQ(h.quantile(0.99), 2.0 * big);
  EXPECT_LE(h.quantile(0.10), 1.0);  // small sample stays bucketed

  const MetricsSnapshot snap = snapshot_metrics();
  const auto* e = snap.find("tel.h.overflow");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->overflow, 2u);
  EXPECT_EQ(e->overflow_max, 2.0 * big);
  // The exposition folds the overflow bin into +Inf.
  EXPECT_NE(to_prometheus(snap).find("tel_h_overflow_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);

  h.reset();
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.overflow_max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

// --------------------------------------------------------------- prometheus

TEST_F(TelemetryTest, SanitizeMetricAndLabelNames) {
  EXPECT_EQ(sanitize_metric_name("qbd.rsolver.solves"), "qbd_rsolver_solves");
  EXPECT_EQ(sanitize_metric_name("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_metric_name(""), "_");
  EXPECT_EQ(sanitize_metric_name("ns:ok_name"), "ns:ok_name");
  EXPECT_EQ(sanitize_label_name("op.kind"), "op_kind");
  EXPECT_EQ(sanitize_label_name("ns:x"), "ns_x");  // ':' invalid in labels
}

TEST_F(TelemetryTest, EscapeLabelValues) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("two\nlines"), "two\\nlines");
}

TEST_F(TelemetryTest, ParseLabelledRegistryNames) {
  const ParsedMetricName p =
      parse_metric_name("daemon.requests{op=\"solve\",tier=\"1\"}");
  EXPECT_EQ(p.base, "daemon.requests");
  ASSERT_EQ(p.labels.size(), 2u);
  EXPECT_EQ(p.labels[0].first, "op");
  EXPECT_EQ(p.labels[0].second, "solve");
  EXPECT_EQ(p.labels[1].first, "tier");
  EXPECT_EQ(p.labels[1].second, "1");
  // Malformed blocks stay part of the base name.
  EXPECT_EQ(parse_metric_name("broken{op=solve}").base, "broken{op=solve}");
}

TEST_F(TelemetryTest, ExpositionRendersCountersGaugesAndLabels) {
  counter("tel.prom.requests{op=\"solve\"}").add(3);
  counter("tel.prom.requests{op=\"tail\"}").add(1);
  gauge("tel.prom.depth").set(2.5);

  const std::string text = to_prometheus(snapshot_metrics());
  EXPECT_NE(text.find("# TYPE tel_prom_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("tel_prom_requests{op=\"solve\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("tel_prom_requests{op=\"tail\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tel_prom_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tel_prom_depth 2.5"), std::string::npos);
  // One TYPE line per family even with several labelled samples.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE tel_prom_requests ", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST_F(TelemetryTest, ExpositionDropsKindConflictsInsteadOfDoubleType) {
  // Same family from two different kinds: the first (name-sorted) entry
  // wins, the conflicting sample is dropped, and exactly one TYPE line
  // is emitted -- a double-TYPE family is a scrape error.
  counter("tel.kind{l=\"a\"}").add(1);
  gauge("tel.kind{l=\"b\"}").set(9.0);
  const std::string text = to_prometheus(snapshot_metrics());
  EXPECT_NE(text.find("tel_kind{l=\"a\"} 1"), std::string::npos);
  EXPECT_EQ(text.find("tel_kind{l=\"b\"}"), std::string::npos);
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE tel_kind ", pos)) != std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST_F(TelemetryTest, ExpositionHistogramIsCumulativeWithHonestInf) {
  Histogram& h = histogram("tel.prom.lat");
  h.record(0.5);
  h.record(0.6);
  h.record(3.0);
  h.record(std::ldexp(1.0, 40));  // overflow: only +Inf may hold it

  const std::string text = to_prometheus(snapshot_metrics());
  EXPECT_NE(text.find("# TYPE tel_prom_lat histogram\n"), std::string::npos);
  // Cumulative, non-decreasing bucket counts ending at +Inf == count.
  std::uint64_t prev = 0;
  std::uint64_t inf_value = 0;
  bool saw_inf = false;
  for (const std::string& line : split_lines(text)) {
    if (line.rfind("tel_prom_lat_bucket{le=\"", 0) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos);
    const std::uint64_t v = std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    EXPECT_GE(v, prev) << line;
    prev = v;
    if (line.find("le=\"+Inf\"") != std::string::npos) {
      saw_inf = true;
      inf_value = v;
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_EQ(inf_value, 4u);
  EXPECT_NE(text.find("tel_prom_lat_count 4"), std::string::npos);
  EXPECT_NE(text.find("tel_prom_lat_sum "), std::string::npos);
}

// ---------------------------------------------------------------------- log

#if !defined(PERFORMA_OBS_DISABLED)
TEST_F(TelemetryTest, LogLinesAreStructuredNdjson) {
  const std::string path = temp_path("tel_log_shape");
  set_log_file(path);
  PERFORMA_LOG(kInfo, "tel.event")
      .kv("text", "with \"quotes\" and \\slash")
      .kv("ratio", 0.5)
      .kv("n", std::uint64_t{7})
      .kv("flag", true);
  reset_log_for_test();

  const std::string content = read_file(path);
  ::unlink(path.c_str());
  ASSERT_FALSE(content.empty());
  ASSERT_EQ(content.back(), '\n');
  const std::string line = split_lines(content)[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(line.find("\"event\":\"tel.event\""), std::string::npos);
  EXPECT_NE(line.find("\"ts\":"), std::string::npos);
  EXPECT_NE(line.find("\"pid\":"), std::string::npos);
  EXPECT_NE(line.find("\"text\":\"with \\\"quotes\\\" and \\\\slash\""),
            std::string::npos);
  EXPECT_NE(line.find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"n\":7"), std::string::npos);
  EXPECT_NE(line.find("\"flag\":true"), std::string::npos);
}

TEST_F(TelemetryTest, LogLevelGateSuppressesBelowThreshold) {
  const std::string path = temp_path("tel_log_level");
  set_log_file(path);
  set_log_level(LogLevel::kWarn);
  PERFORMA_LOG(kInfo, "tel.dropped").kv("x", 1);
  PERFORMA_LOG(kError, "tel.kept").kv("x", 2);
  reset_log_for_test();

  const std::string content = read_file(path);
  ::unlink(path.c_str());
  EXPECT_EQ(content.find("tel.dropped"), std::string::npos);
  EXPECT_NE(content.find("tel.kept"), std::string::npos);
}

TEST_F(TelemetryTest, LogSiteTokenBucketLimitsAndCountsSuppressed) {
  LogSite site;
  int admitted = 0;
  for (int i = 0; i < 100; ++i) {
    if (site.admit()) ++admitted;
  }
  EXPECT_EQ(admitted, static_cast<int>(LogSite::kBurst));
  EXPECT_EQ(site.take_suppressed(), 100u - LogSite::kBurst);
  EXPECT_EQ(site.take_suppressed(), 0u);  // counter resets on read
}

TEST_F(TelemetryTest, HotLogSiteIsRateLimitedThroughTheMacro) {
  const std::string path = temp_path("tel_log_rate");
  set_log_file(path);
  for (int i = 0; i < 200; ++i) {
    PERFORMA_LOG(kWarn, "tel.hot").kv("i", i);
  }
  reset_log_for_test();

  const std::string content = read_file(path);
  ::unlink(path.c_str());
  std::size_t lines = 0, pos = 0;
  while ((pos = content.find("\"event\":\"tel.hot\"", pos)) !=
         std::string::npos) {
    ++lines;
    pos += 1;
  }
  EXPECT_GE(lines, 1u);
  // Burst cap, plus a small allowance for refill while the loop runs.
  EXPECT_LE(lines, static_cast<std::size_t>(LogSite::kBurst) + 2);
}

TEST_F(TelemetryTest, MergeLogFragmentKeepsCompleteLinesDropsTornTail) {
  const std::string sink = temp_path("tel_log_sink");
  set_log_file(sink);
  ForkHandoff handoff = ForkHandoff::prepare();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The child logs into its fragment, then is "killed" mid-line.
    handoff.enter_child();
    PERFORMA_LOG(kInfo, "tel.worker.a");
    PERFORMA_LOG(kInfo, "tel.worker.b");
    const int fd = ::open(log_file_path().c_str(), O_WRONLY | O_APPEND);
    (void)!::write(fd, "{\"event\":\"torn", 14);
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(handoff.absorb(), 2u);
  // A worker that never wrote its fragment merges nothing.
  EXPECT_EQ(ForkHandoff::prepare().absorb(), 0u);
  reset_log_for_test();

  const std::string content = read_file(sink);
  ::unlink(sink.c_str());
  const std::string worker_pid = "\"pid\":" + std::to_string(pid) + ",";
  for (const char* event : {"tel.worker.a", "tel.worker.b"}) {
    const std::size_t at =
        content.find("\"event\":\"" + std::string(event) + "\"");
    ASSERT_NE(at, std::string::npos) << event << "\n" << content;
    const std::size_t eol = content.find('\n', at);
    EXPECT_NE(content.substr(at, eol - at).find(worker_pid), std::string::npos)
        << content;  // the worker's pid is kept
  }
  EXPECT_EQ(content.find("torn"), std::string::npos);
  // The fragment is consumed.
  EXPECT_TRUE(testing::SiblingFiles(sink, ".frag.").empty());
}

TEST_F(TelemetryTest, QueryIdScopesNestAndStampLogLines) {
  EXPECT_TRUE(current_query_id().empty());
  const std::string outer = mint_query_id();
  const std::string inner = mint_query_id();
  EXPECT_NE(outer, inner);
  EXPECT_EQ(outer.rfind("q-", 0), 0u);

  const std::string path = temp_path("tel_log_qid");
  {
    QueryIdScope a(outer);
    EXPECT_EQ(current_query_id(), outer);
    EXPECT_STREQ(current_query_id_cstr(), outer.c_str());
    {
      QueryIdScope b(inner);
      EXPECT_EQ(current_query_id(), inner);
      set_log_file(path);
      PERFORMA_LOG(kInfo, "tel.qid").kv("x", 1);
      reset_log_for_test();
    }
    EXPECT_EQ(current_query_id(), outer);
  }
  EXPECT_TRUE(current_query_id().empty());

  const std::string content = read_file(path);
  ::unlink(path.c_str());
  EXPECT_NE(content.find("\"qid\":\"" + inner + "\""), std::string::npos);
}

// ------------------------------------------------------------------- flight

std::vector<std::string> flight_records(const std::string& path) {
  const std::string raw = read_file(path);
  std::vector<std::string> records;
  std::size_t start = 0;
  while (start < raw.size()) {
    if (raw[start] == '\0') {
      ++start;
      continue;
    }
    std::size_t end = raw.find('\0', start);
    if (end == std::string::npos) end = raw.size();
    const std::string rec = raw.substr(start, end - start);
    // Keep only structurally plausible records (the reader contract:
    // parse-or-skip; torn slots never count).
    if (!rec.empty() && rec.front() == '{' && rec.back() == '}') {
      records.push_back(rec);
    }
    start = end;
  }
  return records;
}

TEST_F(TelemetryTest, FlightRecordsSurviveAndCleanExitUnlinks) {
  const std::string prefix = temp_path("tel_flight");
  ASSERT_TRUE(init_flight(prefix));
  ASSERT_TRUE(flight_enabled());
  const std::string path = flight_path();
  EXPECT_EQ(path, prefix + ".flight." + std::to_string(::getpid()));

  const std::string ev = "{\"event\":\"tel.flight\",\"n\":1}";
  flight_record(ev.data(), ev.size());

  const auto records = flight_records(path);
  ASSERT_GE(records.size(), 2u);  // header + our event
  EXPECT_NE(records[0].find("\"event\":\"flight_header\""),
            std::string::npos);
  bool found = false;
  for (const auto& r : records) found = found || r == ev;
  EXPECT_TRUE(found);

  disable_flight(/*keep_file=*/false);
  EXPECT_FALSE(flight_enabled());
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // clean exit: no evidence
}

TEST_F(TelemetryTest, OversizedFlightRecordIsTruncatedNotCorrupting) {
  const std::string prefix = temp_path("tel_flight_big");
  ASSERT_TRUE(init_flight(prefix));
  const std::string path = flight_path();
  const std::string big(10 * kFlightSlotBytes, 'x');
  flight_record(big.data(), big.size());  // must not scribble past a slot
  const std::string after = "{\"event\":\"after\"}";
  flight_record(after.data(), after.size());
  const auto records = flight_records(path);
  bool found = false;
  for (const auto& r : records) found = found || r == after;
  EXPECT_TRUE(found);
  disable_flight(/*keep_file=*/false);
}

#if !defined(PERFORMA_OBS_DISABLED)
TEST_F(TelemetryTest, OversizedLogLineFallsBackToParseableFlightHeader) {
  const std::string prefix = temp_path("tel_flight_biglog");
  ASSERT_TRUE(init_flight(prefix));
  const std::string path = flight_path();
  set_log_file("/dev/null");

  // A kv payload far past the 256-byte slot: the full line cannot fit,
  // so the flight copy must degrade to the header fields plus a
  // truncation marker -- never a byte-truncated non-JSON prefix.
  QueryIdScope scope("q-biglog-1");
  PERFORMA_LOG(kWarn, "tel.biglog")
      .kv("payload", std::string(4 * kFlightSlotBytes, 'y'));

  bool found = false;
  for (const auto& r : flight_records(path)) {
    if (r.find("\"event\":\"tel.biglog\"") == std::string::npos) continue;
    found = true;
    EXPECT_LT(r.size(), kFlightSlotBytes);
    EXPECT_NE(r.find("\"qid\":\"q-biglog-1\""), std::string::npos) << r;
    EXPECT_NE(r.find("\"trunc\":true"), std::string::npos) << r;
    EXPECT_EQ(r.find("yyyy"), std::string::npos) << r;
  }
  EXPECT_TRUE(found);
  disable_flight(/*keep_file=*/false);
}
#endif  // !PERFORMA_OBS_DISABLED

TEST_F(TelemetryTest, CrashedChildLeavesFlightFileWithMarkerAndQid) {
  const std::string prefix = temp_path("tel_flight_crash");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: its own flight file, one in-flight query, then a fatal
    // signal. The handler stamps the crash marker and re-raises.
    if (!init_flight(prefix)) ::_exit(9);
    QueryIdScope scope("q-crash-77");
    const std::string ev = "{\"event\":\"child.work\"}";
    flight_record(ev.data(), ev.size());
    std::raise(SIGABRT);
    ::_exit(8);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const std::string path =
      prefix + ".flight." + std::to_string(static_cast<long>(pid));
  const auto records = flight_records(path);
  ::unlink(path.c_str());
  ASSERT_GE(records.size(), 3u);  // header, crash marker, event
  bool crash = false, work = false;
  for (const auto& r : records) {
    if (r.find("\"event\":\"crash\"") != std::string::npos) {
      crash = true;
      EXPECT_NE(r.find("\"signal\":6"), std::string::npos) << r;
      // The marker names the in-flight query: a post-mortem can tie
      // the death to the request that caused it.
      EXPECT_NE(r.find("\"qid\":\"q-crash-77\""), std::string::npos) << r;
    }
    if (r.find("\"event\":\"child.work\"") != std::string::npos) work = true;
  }
  EXPECT_TRUE(crash);
  EXPECT_TRUE(work);
}
#endif  // !PERFORMA_OBS_DISABLED

}  // namespace
}  // namespace performa::obs

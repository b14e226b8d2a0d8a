// Tests for the supervised sweep runner: outcome taxonomy, checksummed
// checkpoints, worker isolation/classification, retry backoff, golden
// comparison, and the headline acceptance drill -- a sweep SIGKILLed
// mid-run resumes bit-exactly from its checkpoint.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "linalg/errors.h"
#include "qbd/solve_report.h"
#include "runner/checkpoint.h"
#include "runner/golden.h"
#include "runner/outcome.h"
#include "runner/retry.h"
#include "runner/sweep.h"
#include "runner/worker.h"
#include "sim/random.h"

namespace performa::runner {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "performa_runner_" +
         std::to_string(::getpid()) + "_" + name;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// PointId(i) spelled without operator+(const char*, string&&),
// which trips GCC 12's -Wrestrict false positive under -O2 -Werror.
std::string PointId(int i) {
  std::string id = "p";
  id += std::to_string(i);
  return id;
}

std::size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

void AppendByte(const std::string& path) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out.put('x');
}

// "P <crc32> <payload>" with a valid checksum.
std::string WithCrc(const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", crc32(payload));
  return std::string("P ") + crc + " " + payload;
}

// --- outcome taxonomy ------------------------------------------------

TEST(Outcome, StringsRoundTrip) {
  for (Outcome o : {Outcome::kOk, Outcome::kTimeout, Outcome::kCrash,
                    Outcome::kSolverFailure, Outcome::kUnstableModel}) {
    Outcome back = Outcome::kCrash;
    ASSERT_TRUE(outcome_from_string(to_string(o), back)) << to_string(o);
    EXPECT_EQ(back, o);
  }
  Outcome back = Outcome::kOk;
  EXPECT_FALSE(outcome_from_string("partially-ok", back));
}

TEST(Outcome, TransientVsDeterministic) {
  EXPECT_TRUE(is_transient(Outcome::kTimeout));
  EXPECT_TRUE(is_transient(Outcome::kCrash));
  EXPECT_FALSE(is_transient(Outcome::kOk));
  EXPECT_FALSE(is_transient(Outcome::kSolverFailure));
  EXPECT_FALSE(is_transient(Outcome::kUnstableModel));
}

TEST(Outcome, ExitCodeMapping) {
  EXPECT_EQ(outcome_from_exit_code(kExitOk), Outcome::kOk);
  EXPECT_EQ(outcome_from_exit_code(kExitSolverFailure),
            Outcome::kSolverFailure);
  EXPECT_EQ(outcome_from_exit_code(kExitUnstableModel),
            Outcome::kUnstableModel);
  EXPECT_EQ(outcome_from_exit_code(kExitError), Outcome::kCrash);
  EXPECT_EQ(outcome_from_exit_code(7), Outcome::kCrash);  // unknown code
}

// --- checkpoint codec and file I/O -----------------------------------

TEST(Checkpoint, Crc32KnownVectors) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);  // IEEE 802.3 check value
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Checkpoint, PointCodecRoundTripsBitExactly) {
  CheckpointPoint p;
  p.index = 12;
  p.id = "rho=0.65";
  p.outcome = Outcome::kOk;
  p.attempts = 2;
  p.message = "second attempt won";
  p.metrics = {{"mean_ql", 62.0817234567891},
               {"tiny", 4.9406564584124654e-324},  // denormal min
               {"inf", std::numeric_limits<double>::infinity()},
               {"neg", -0.0}};
  const std::string line = encode_point(p);
  EXPECT_NE(line.find("|second attempt won||mean_ql="), std::string::npos)
      << "the <rng> field is written empty";
  CheckpointPoint q;
  ASSERT_TRUE(decode_point(line, q));
  EXPECT_EQ(q.index, p.index);
  EXPECT_EQ(q.id, p.id);
  EXPECT_EQ(q.outcome, p.outcome);
  EXPECT_EQ(q.attempts, p.attempts);
  EXPECT_EQ(q.message, p.message);
  ASSERT_EQ(q.metrics.size(), p.metrics.size());
  for (std::size_t i = 0; i < p.metrics.size(); ++i) {
    EXPECT_EQ(q.metrics[i].first, p.metrics[i].first);
    EXPECT_TRUE(BitEqual(q.metrics[i].second, p.metrics[i].second))
        << p.metrics[i].first;
  }
}

TEST(Checkpoint, CodecRejectsCorruption) {
  CheckpointPoint p;
  p.id = "x";
  p.metrics = {{"a", 1.0}};
  std::string line = encode_point(p);
  CheckpointPoint out;
  ASSERT_TRUE(decode_point(line, out));
  std::string flipped = line;
  flipped[flipped.size() / 2] ^= 0x20;  // flip one payload character
  EXPECT_FALSE(decode_point(flipped, out));
  EXPECT_FALSE(decode_point(line.substr(0, line.size() - 3), out));
  EXPECT_FALSE(decode_point("not a record", out));

  // A valid checksum does not rescue a record with the wrong field count.
  EXPECT_TRUE(decode_point(WithCrc("0|x|ok|1|||a=0x1p+0"), out));  // 7
  EXPECT_FALSE(decode_point(WithCrc("0|x|ok|1||a=0x1p+0"), out));   // 6
  EXPECT_FALSE(decode_point(WithCrc("0|x|ok|1||||a=0x1p+0"), out));  // 8
}

TEST(Checkpoint, AppendLoadRoundTripAndAppendsWin) {
  const std::string path = TempPath("roundtrip.ck");
  std::remove(path.c_str());
  const auto file = open_checkpoint(path, "unit-sweep");

  CheckpointPoint ok;
  ok.index = 0;
  ok.id = "p0";
  ok.metrics = {{"v", 0.1234567890123456789}};
  append_point(file, ok);

  CheckpointPoint bad;
  bad.index = 1;
  bad.id = "p1";
  bad.outcome = Outcome::kSolverFailure;
  bad.attempts = 1;
  bad.message = "logarithmic reduction failed";
  append_point(file, bad);

  // A later record for p1 supersedes the degraded one.
  CheckpointPoint redo = bad;
  redo.outcome = Outcome::kOk;
  redo.attempts = 1;
  redo.message.clear();
  redo.metrics = {{"v", 2.5}};
  append_point(file, redo);

  const auto ck = load_checkpoint(path);
  EXPECT_EQ(ck.sweep_name, "unit-sweep");
  EXPECT_EQ(ck.dropped_records, 0u);
  ASSERT_EQ(ck.points.size(), 3u);
  EXPECT_TRUE(BitEqual(ck.points[0].metric("v"), ok.metrics[0].second));
  EXPECT_EQ(ck.points[1].outcome, Outcome::kSolverFailure);
  EXPECT_TRUE(std::isnan(ck.points[1].metric("v")));

  const CheckpointPoint* latest = ck.find("p1");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->outcome, Outcome::kOk);
  EXPECT_TRUE(BitEqual(latest->metric("v"), 2.5));
  EXPECT_EQ(ck.find("nope"), nullptr);
  std::remove(path.c_str());
}

TEST(Checkpoint, SyncedAppendIsDurableAndLoadsBack) {
  // The sync flag fsyncs each record before append_point returns. The
  // data path is identical to the async flavor, so this asserts the
  // synced record loads back bit-exactly and the flag composes with
  // later async appends in the same file.
  const std::string path = TempPath("synced.ck");
  std::remove(path.c_str());
  const auto file = open_checkpoint(path, "sync-sweep");

  CheckpointPoint p;
  p.index = 0;
  p.id = "durable";
  p.metrics = {{"v", 0.3333333333333333}};
  append_point(file, p, /*sync=*/true);

  CheckpointPoint q;
  q.index = 1;
  q.id = "buffered";
  q.metrics = {{"v", 1.5}};
  append_point(file, q, /*sync=*/false);

  const auto ck = load_checkpoint(path);
  EXPECT_EQ(ck.dropped_records, 0u);
  ASSERT_EQ(ck.points.size(), 2u);
  EXPECT_TRUE(BitEqual(ck.points[0].metric("v"), 0.3333333333333333));
  EXPECT_TRUE(BitEqual(ck.points[1].metric("v"), 1.5));
  std::remove(path.c_str());
}

TEST(Checkpoint, LoaderDropsTornAndCorruptTail) {
  const std::string path = TempPath("torn.ck");
  std::remove(path.c_str());
  const auto file = open_checkpoint(path, "torn-sweep");
  CheckpointPoint p;
  p.id = "good";
  p.metrics = {{"v", 1.0}};
  append_point(file, p);
  {
    // Simulate a short write (disk full) mid-append: a record missing
    // its tail.
    std::ofstream out(path, std::ios::app);
    out << "P deadbeef 1|torn|ok|1|||v=0x1.8p+";  // truncated, no newline
  }
  const auto ck = load_checkpoint(path);
  ASSERT_EQ(ck.points.size(), 1u);
  EXPECT_EQ(ck.points[0].id, "good");
  EXPECT_EQ(ck.dropped_records, 1u);
  std::remove(path.c_str());
}

TEST(Checkpoint, HeaderGuardsSweepIdentity) {
  const std::string path = TempPath("header.ck");
  std::remove(path.c_str());
  open_checkpoint(path, "sweep-a");
  open_checkpoint(path, "sweep-a");  // idempotent reopen is fine
  EXPECT_THROW(open_checkpoint(path, "sweep-b"), InvalidArgument);

  // A header of any length reads back whole: a 600-char sweep name
  // reopens and resumes its own checkpoint.
  const std::string long_name(600, 'x');
  std::remove(path.c_str());
  {
    const auto file = open_checkpoint(path, long_name);
    CheckpointPoint p;
    p.id = "p0";
    p.metrics = {{"v", 1.0}};
    append_point(file, p);
  }
  open_checkpoint(path, long_name);
  EXPECT_THROW(open_checkpoint(path, long_name + "y"), InvalidArgument);
  const auto ck = load_checkpoint(path);
  EXPECT_EQ(ck.sweep_name, long_name);
  EXPECT_EQ(ck.points.size(), 1u);

  const std::string junk = TempPath("junk.ck");
  {
    std::ofstream out(junk);
    out << "this is not a checkpoint\n";
  }
  EXPECT_THROW(load_checkpoint(junk), InvalidArgument);
  std::remove(path.c_str());
  std::remove(junk.c_str());
}

// Checkpoints written before the <rng> field was left empty carry a
// simulator engine state there (the mt19937_64 stream format, 6,300+
// bytes), covered by the record's CRC. The CRC below was computed by that
// writer for exactly this record.
std::string RecordWithRngState() {
  std::ostringstream engine;
  engine << sim::Rng(4242);
  std::string record = "P 09170be7 0|rho=0.1|ok|1||";
  record += engine.str();
  record +=
      "|mean_ql=0x1.f9add3746f65fp-4,sim_mean_ql=0x1.5555555555555p-1,"
      "zero=0x0p+0";
  return record;
}

TEST(Checkpoint, RecordWithRngStateLoadsAndResumes) {
  const std::vector<std::pair<std::string, double>> expected = {
      {"mean_ql", 0x1.f9add3746f65fp-4},
      {"sim_mean_ql", 0x1.5555555555555p-1},
      {"zero", 0.0}};
  auto expect_metrics = [&expected](const CheckpointPoint& p) {
    ASSERT_EQ(p.metrics.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(p.metrics[i].first, expected[i].first);
      EXPECT_TRUE(BitEqual(p.metrics[i].second, expected[i].second))
          << expected[i].first;
    }
  };

  const std::string record = RecordWithRngState();
  ASSERT_GT(record.size(), 6000u);
  CheckpointPoint decoded;
  ASSERT_TRUE(decode_point(record, decoded));
  EXPECT_EQ(decoded.id, "rho=0.1");
  EXPECT_EQ(decoded.outcome, Outcome::kOk);
  expect_metrics(decoded);

  const std::string path = TempPath("rng_field.ck");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "performa-checkpoint v2 compat-sweep\n" << record << "\n";
  }
  const auto golden = load_checkpoint(path);
  EXPECT_EQ(golden.dropped_records, 0u);
  ASSERT_EQ(golden.points.size(), 1u);
  expect_metrics(golden.points[0]);

  // A resumed sweep reuses the point; running it would yield -1.
  SweepOptions opts;
  opts.checkpoint_path = path;
  opts.resume = true;
  const auto sweep = run_sweep("compat-sweep", {{"rho=0.1", []() {
                                  PointResult r;
                                  r.metrics = {{"mean_ql", -1.0}};
                                  return r;
                                }}},
                               opts);
  EXPECT_EQ(sweep.reused, 1u);
  ASSERT_EQ(sweep.points.size(), 1u);
  expect_metrics(sweep.points[0]);

  SweepCheckpoint actual;
  actual.points = sweep.points;
  EXPECT_TRUE(compare_to_golden(golden, actual).ok());
  std::remove(path.c_str());
}

// --- retry policy -----------------------------------------------------

TEST(Retry, BackoffIsDeterministicCappedAndJittered) {
  RetryPolicy plain;
  plain.initial_backoff_seconds = 0.5;
  plain.multiplier = 2.0;
  plain.max_backoff_seconds = 3.0;
  plain.jitter = 0.0;
  EXPECT_DOUBLE_EQ(plain.backoff_seconds(1, 9), 0.5);
  EXPECT_DOUBLE_EQ(plain.backoff_seconds(2, 9), 1.0);
  EXPECT_DOUBLE_EQ(plain.backoff_seconds(3, 9), 2.0);
  EXPECT_DOUBLE_EQ(plain.backoff_seconds(4, 9), 3.0);   // capped
  EXPECT_DOUBLE_EQ(plain.backoff_seconds(20, 9), 3.0);  // stays capped

  RetryPolicy jit;
  jit.jitter = 0.25;
  for (unsigned attempt = 1; attempt <= 5; ++attempt) {
    const double base = plain.backoff_seconds(
        attempt, 0);  // jitter-free reference with same schedule
    RetryPolicy ref = jit;
    ref.max_backoff_seconds = plain.max_backoff_seconds;
    const double a = ref.backoff_seconds(attempt, 1234);
    const double b = ref.backoff_seconds(attempt, 1234);
    EXPECT_TRUE(BitEqual(a, b)) << "backoff must be deterministic";
    EXPECT_GE(a, 0.75 * base);
    EXPECT_LE(a, 1.25 * base);
  }
}

TEST(Retry, PolicyValidation) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = RetryPolicy{};
  p.multiplier = 0.5;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = RetryPolicy{};
  p.jitter = 1.5;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = RetryPolicy{};
  p.initial_backoff_seconds = -1.0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  RetryPolicy{}.validate();  // defaults are sane
}

// --- worker isolation and classification ------------------------------

TEST(Worker, ResultCodecRoundTrips) {
  PointResult r;
  r.metrics = {{"a", 1.5}, {"b", std::numeric_limits<double>::infinity()}};
  PointResult out;
  ASSERT_TRUE(decode_result(encode_result(r), out));
  ASSERT_EQ(out.metrics.size(), 2u);
  EXPECT_TRUE(BitEqual(out.metrics[0].second, 1.5));
  // A torn payload (no ok sentinel) must not decode as truth.
  EXPECT_FALSE(decode_result("metric a 0x1.8p+0\n", out));
}

// One point through the supervised runner with no retries: the
// classification of a single forked attempt.
CheckpointPoint RunOnce(PointFn fn, double timeout_seconds = 0.0) {
  SweepOptions opts;
  opts.retry.max_attempts = 1;
  opts.timeout_seconds = timeout_seconds;
  const auto sweep = run_sweep("worker", {{"p", std::move(fn)}}, opts);
  EXPECT_EQ(sweep.points.size(), 1u);
  return sweep.points.at(0);
}

TEST(Worker, DeliversResultFromSubprocess) {
  const auto point = RunOnce([]() {
    PointResult r;
    r.metrics = {{"answer", 42.0e-3}};
    return r;
  });
  ASSERT_EQ(point.outcome, Outcome::kOk);
  ASSERT_EQ(point.metrics.size(), 1u);
  EXPECT_TRUE(BitEqual(point.metrics[0].second, 42.0e-3));
}

TEST(Worker, SigkillsHungPointAtTimeout) {
  const auto start = std::chrono::steady_clock::now();
  const auto point = RunOnce(
      []() {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return PointResult{};
      },
      0.2);
  EXPECT_EQ(point.outcome, Outcome::kTimeout);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
}

TEST(Worker, ClassifiesCrash) {
  const auto abort = RunOnce([]() -> PointResult { std::abort(); });
  EXPECT_EQ(abort.outcome, Outcome::kCrash);
  EXPECT_FALSE(abort.message.empty());

  // An unclassified exception is a crash that keeps its message.
  const auto boom = RunOnce(
      []() -> PointResult { throw std::runtime_error("boom"); });
  EXPECT_EQ(boom.outcome, Outcome::kCrash);
  EXPECT_EQ(boom.message, "boom");

  // A result the worker cannot write (its pipe is gone) exits
  // kExitError: a crash, not an ok exit with a missing payload.
  const auto unwritable = RunOnce([]() {
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    return PointResult{};
  });
  EXPECT_EQ(unwritable.outcome, Outcome::kCrash);
  EXPECT_EQ(unwritable.message,
            "worker exited with code " + std::to_string(kExitError));
}

TEST(Worker, ClassifiesSolverFailure) {
  const auto point = RunOnce([]() -> PointResult {
    throw qbd::SolverFailure("no convergence", qbd::SolveReport{});
  });
  EXPECT_EQ(point.outcome, Outcome::kSolverFailure);
  EXPECT_FALSE(point.message.empty());
}

TEST(Worker, ClassifiesUnstableModel) {
  const auto point = RunOnce(
      []() -> PointResult { throw qbd::UnstableModel("rho >= 1", 1.07); });
  EXPECT_EQ(point.outcome, Outcome::kUnstableModel);
}

// --- run_sweep supervision --------------------------------------------

RetryPolicy FastRetries(unsigned attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.initial_backoff_seconds = 0.01;
  p.multiplier = 1.0;
  p.jitter = 0.0;
  return p;
}

TEST(SweepRunner, ValidatesOptions) {
  std::vector<SweepPointSpec> pts;
  pts.push_back({"p0", []() { return PointResult{}; }});
  SweepOptions resume_without_path;
  resume_without_path.resume = true;
  EXPECT_THROW(run_sweep("s", pts, resume_without_path), InvalidArgument);

  pts.push_back({"p0", []() { return PointResult{}; }});  // duplicate id
  EXPECT_THROW(run_sweep("s", pts, SweepOptions{}), InvalidArgument);
}

TEST(SweepRunner, RetriesTransientCrashThenSucceeds) {
  const std::string counter = TempPath("crash_counter");
  std::remove(counter.c_str());
  std::vector<SweepPointSpec> pts;
  pts.push_back({"flaky", [counter]() -> PointResult {
    AppendByte(counter);  // executions are counted on disk, across forks
    if (FileSize(counter) < 3) std::abort();
    PointResult r;
    r.metrics = {{"v", 1.0}};
    return r;
  }});
  SweepOptions opts;
  opts.retry = FastRetries(3);
  const auto sweep = run_sweep("flaky-sweep", pts, opts);
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_EQ(sweep.points[0].outcome, Outcome::kOk);
  EXPECT_EQ(sweep.points[0].attempts, 3u);
  EXPECT_EQ(sweep.degraded, 0u);
  EXPECT_EQ(FileSize(counter), 3u);
  std::remove(counter.c_str());
}

TEST(SweepRunner, DeterministicFailureIsNotRetried) {
  const std::string counter = TempPath("unstable_counter");
  std::remove(counter.c_str());
  std::vector<SweepPointSpec> pts;
  pts.push_back({"unstable", [counter]() -> PointResult {
    AppendByte(counter);
    throw qbd::UnstableModel("rho >= 1", 1.3);
  }});
  pts.push_back({"fine", []() {
    PointResult r;
    r.metrics = {{"v", 2.0}};
    return r;
  }});
  SweepOptions opts;
  opts.retry = FastRetries(5);
  const auto sweep = run_sweep("degraded-sweep", pts, opts);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.points[0].outcome, Outcome::kUnstableModel);
  EXPECT_EQ(sweep.points[0].attempts, 1u);  // no retry for deterministic
  EXPECT_EQ(FileSize(counter), 1u);
  EXPECT_EQ(sweep.points[1].outcome, Outcome::kOk);  // sweep continued
  EXPECT_EQ(sweep.degraded, 1u);
  std::remove(counter.c_str());
}

TEST(SweepRunner, TimeoutRetriedWithBackoffThenDegraded) {
  std::vector<SweepPointSpec> pts;
  pts.push_back({"hung", []() {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return PointResult{};
  }});
  pts.push_back({"after", []() {
    PointResult r;
    r.metrics = {{"v", 3.0}};
    return r;
  }});
  SweepOptions opts;
  opts.timeout_seconds = 0.2;
  opts.retry = FastRetries(2);
  const auto sweep = run_sweep("timeout-sweep", pts, opts);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.points[0].outcome, Outcome::kTimeout);
  EXPECT_EQ(sweep.points[0].attempts, 2u);  // retried once, then degraded
  EXPECT_EQ(sweep.points[1].outcome, Outcome::kOk);
  EXPECT_EQ(sweep.degraded, 1u);
}

// --- the acceptance drill: SIGKILL mid-sweep, resume bit-exactly ------

// Deterministic RNG-backed point: proves resume reproduces stochastic
// results bit-for-bit, not just analytically recomputable ones.
PointResult DeterministicPoint(int i) {
  sim::Rng rng(sim::derive_seed(2024, static_cast<std::uint64_t>(i)));
  auto uniform = [&rng]() {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  PointResult out;
  out.metrics.emplace_back("a", uniform());
  out.metrics.emplace_back("b", uniform() * 1.0e6);
  out.metrics.emplace_back("c", uniform() - 0.5);
  return out;
}

TEST(SweepRunner, SigkillMidSweepResumesBitExact) {
  const std::string ck = TempPath("kill_drill.ck");
  const std::string marker = TempPath("kill_drill.marker");
  std::remove(ck.c_str());
  std::remove(marker.c_str());

  auto make_points = [&marker]() {
    std::vector<SweepPointSpec> pts;
    for (int i = 0; i < 6; ++i) {
      pts.push_back({PointId(i), [i, marker]() -> PointResult {
        if (i == 3 && !FileExists(marker)) {
          // First execution of p3: hard-kill the supervising sweep
          // process (our parent) exactly as a machine crash would, then
          // die without producing a payload.
          AppendByte(marker);
          ::kill(::getppid(), SIGKILL);
          std::this_thread::sleep_for(std::chrono::seconds(5));
          std::_Exit(kExitError);
        }
        return DeterministicPoint(i);
      }});
    }
    return pts;
  };

  // Run the sweep in a child process so the SIGKILL does not take down
  // the test binary.
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    SweepOptions opts;
    opts.checkpoint_path = ck;
    (void)run_sweep("kill-drill", make_points(), opts);
    std::_Exit(7);  // unreachable: p3 kills this process mid-sweep
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "sweep must die from the SIGKILL";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The checkpoint holds exactly the points completed before the kill.
  const auto mid = load_checkpoint(ck);
  ASSERT_EQ(mid.points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(mid.points[i].id, PointId(i));
    EXPECT_EQ(mid.points[i].outcome, Outcome::kOk);
  }

  // Resume: completed points come back from disk, the rest run fresh.
  clear_interrupt();
  SweepOptions resume_opts;
  resume_opts.checkpoint_path = ck;
  resume_opts.resume = true;
  const auto resumed = run_sweep("kill-drill", make_points(), resume_opts);
  ASSERT_EQ(resumed.points.size(), 6u);
  EXPECT_EQ(resumed.reused, 3u);
  EXPECT_EQ(resumed.degraded, 0u);
  EXPECT_FALSE(resumed.interrupted);

  // Reference: the same sweep, never interrupted (marker exists, so p3
  // computes normally).
  const auto golden = run_sweep("kill-drill-golden", make_points(),
                                SweepOptions{});
  ASSERT_EQ(golden.points.size(), 6u);

  for (std::size_t i = 0; i < 6; ++i) {
    SCOPED_TRACE("point " + golden.points[i].id);
    EXPECT_EQ(resumed.points[i].id, golden.points[i].id);
    ASSERT_EQ(resumed.points[i].metrics.size(),
              golden.points[i].metrics.size());
    for (std::size_t m = 0; m < golden.points[i].metrics.size(); ++m) {
      EXPECT_EQ(resumed.points[i].metrics[m].first,
                golden.points[i].metrics[m].first);
      EXPECT_TRUE(BitEqual(resumed.points[i].metrics[m].second,
                           golden.points[i].metrics[m].second))
          << golden.points[i].metrics[m].first;
    }
  }

  std::remove(ck.c_str());
  std::remove(marker.c_str());
}

// --- golden comparison ------------------------------------------------

SweepCheckpoint MakeGolden() {
  SweepCheckpoint g;
  g.sweep_name = "g";
  CheckpointPoint p0;
  p0.id = "p0";
  p0.metrics = {{"x", 1.0}, {"y", 0.0}};
  CheckpointPoint p1;
  p1.id = "p1";
  p1.outcome = Outcome::kUnstableModel;  // degraded golden point
  g.points = {p0, p1};
  return g;
}

TEST(Golden, IdenticalSweepsAgree) {
  const auto g = MakeGolden();
  const auto report = compare_to_golden(g, g);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.points_compared, 2u);
  EXPECT_EQ(report.metrics_compared, 2u);
}

TEST(Golden, FlagsValueDriftBeyondTolerance) {
  const auto g = MakeGolden();
  auto a = g;
  a.points[0].metrics[0].second = 1.0 + 1e-6;
  const auto report = compare_to_golden(g, a);
  ASSERT_EQ(report.diffs.size(), 1u);
  EXPECT_EQ(report.diffs[0].kind, GoldenDiff::Kind::kValue);
  EXPECT_EQ(report.diffs[0].metric, "x");
  EXPECT_NEAR(report.diffs[0].rel_error, 1e-6, 1e-8);
  EXPECT_FALSE(report.to_string().empty());
}

// There is no absolute floor to hide drift on a metric whose golden value
// is exactly 0: any nonzero value there is flagged.
TEST(Golden, AbsFloorGuardsZeroValuedMetrics) {
  const auto g = MakeGolden();
  auto a = g;
  a.points[0].metrics[1].second = 1e-15;  // golden y is exactly 0
  const auto report = compare_to_golden(g, a);
  ASSERT_EQ(report.diffs.size(), 1u);
  EXPECT_EQ(report.diffs[0].kind, GoldenDiff::Kind::kValue);
  EXPECT_EQ(report.diffs[0].metric, "y");
}

// A metric whose golden value is infinite agrees with the same infinity
// (their difference is NaN) and still differs from the other infinity and
// from any finite value.
TEST(Golden, EqualInfinitiesAgree) {
  const double inf = std::numeric_limits<double>::infinity();
  auto g = MakeGolden();
  g.points[0].metrics[0].second = inf;
  EXPECT_TRUE(compare_to_golden(g, g).ok());

  auto neg = g;
  neg.points[0].metrics[0].second = -inf;
  EXPECT_TRUE(compare_to_golden(neg, neg).ok());

  for (const double other : {-inf, 1.0, 0.0}) {
    auto a = g;
    a.points[0].metrics[0].second = other;
    const auto report = compare_to_golden(g, a);
    ASSERT_EQ(report.diffs.size(), 1u) << other;
    EXPECT_EQ(report.diffs[0].kind, GoldenDiff::Kind::kValue);
    EXPECT_EQ(report.diffs[0].metric, "x");
  }
  // A finite golden value against an infinite actual one differs too.
  auto finite = MakeGolden();
  auto a = finite;
  a.points[0].metrics[0].second = inf;
  EXPECT_EQ(compare_to_golden(finite, a).diffs.size(), 1u);
}

TEST(Golden, FlagsMissingPointMetricAndOutcomeChanges) {
  const auto g = MakeGolden();

  SweepCheckpoint missing_point;
  missing_point.sweep_name = "g";
  missing_point.points = {g.points[1]};
  {
    const auto r = compare_to_golden(g, missing_point);
    ASSERT_EQ(r.diffs.size(), 1u);
    EXPECT_EQ(r.diffs[0].kind, GoldenDiff::Kind::kMissingPoint);
    EXPECT_EQ(r.diffs[0].point_id, "p0");
  }

  auto missing_metric = g;
  missing_metric.points[0].metrics.pop_back();
  {
    const auto r = compare_to_golden(g, missing_metric);
    ASSERT_EQ(r.diffs.size(), 1u);
    EXPECT_EQ(r.diffs[0].kind, GoldenDiff::Kind::kMissingMetric);
    EXPECT_EQ(r.diffs[0].metric, "y");
  }

  auto outcome_change = g;
  outcome_change.points[1].outcome = Outcome::kOk;
  {
    const auto r = compare_to_golden(g, outcome_change);
    ASSERT_EQ(r.diffs.size(), 1u);
    EXPECT_EQ(r.diffs[0].kind, GoldenDiff::Kind::kOutcome);
    EXPECT_EQ(r.diffs[0].point_id, "p1");
  }

  // Extra actual points are fine (supersets pass).
  auto superset = g;
  CheckpointPoint extra;
  extra.id = "p2";
  extra.metrics = {{"x", 9.0}};
  superset.points.push_back(extra);
  EXPECT_TRUE(compare_to_golden(g, superset).ok());
}

}  // namespace
}  // namespace performa::runner

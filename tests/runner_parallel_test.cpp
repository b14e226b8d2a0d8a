// Tests for the parallel sweep scheduler: bit-exact equivalence between
// -j1 and -jN runs (the ordering guarantee), the per-slot retry state
// machine under fault injection, v2 order-independent checkpoint resume
// (shuffled records ok, duplicated ok-records rejected, v1 still
// readable), SIGINT wind-down that drains in-flight workers, and the
// parallel flavour of the SIGKILL-mid-sweep acceptance drill, the
// telemetry handoff (trace, log, flight) across real worker forks, and
// the pool inside a worker: nested parallel_for, bench::parallel_map's
// exception contract, pool-thread spans, and the default width share.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "linalg/errors.h"
#include "linalg/matrix.h"
#include "linalg/pool.h"
#include "map/lumped_aggregate.h"
#include "medist/me_dist.h"
#include "medist/tpt.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "qbd/qbd.h"
#include "qbd/solution.h"
#include "obs/trace.h"
#include "runner/checkpoint.h"
#include "runner/outcome.h"
#include "runner/retry.h"
#include "runner/sweep.h"
#include "runner/worker.h"
#include "sim/random.h"
#include "test_util.h"

namespace performa::runner {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "performa_parallel_" +
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

RetryPolicy FastRetries(unsigned attempts) {
  RetryPolicy p;
  p.max_attempts = attempts;
  p.initial_backoff_seconds = 0.01;
  p.multiplier = 1.0;
  p.jitter = 0.0;
  return p;
}

// Deterministic RNG-backed point: what "bit-exact across schedules"
// actually has to hold for.
PointResult DeterministicPoint(int i) {
  sim::Rng rng(sim::derive_seed(7701, static_cast<std::uint64_t>(i)));
  auto uniform = [&rng]() {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  PointResult out;
  out.metrics.emplace_back("a", uniform());
  out.metrics.emplace_back("b", uniform() * 1.0e6);
  out.metrics.emplace_back("c", uniform() - 0.5);
  return out;
}

std::vector<SweepPointSpec> DeterministicSpecs(int n) {
  std::vector<SweepPointSpec> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({PointId(i), [i]() {
      // Stagger runtimes so high -j finishes out of request order.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(i % 3 == 0 ? 30 : 5));
      return DeterministicPoint(i);
    }});
  }
  return pts;
}

void ExpectBitIdentical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + a.points[i].id);
    EXPECT_EQ(a.points[i].id, b.points[i].id);
    EXPECT_EQ(a.points[i].index, b.points[i].index);
    EXPECT_EQ(a.points[i].outcome, b.points[i].outcome);
    ASSERT_EQ(a.points[i].metrics.size(), b.points[i].metrics.size());
    for (std::size_t m = 0; m < a.points[i].metrics.size(); ++m) {
      EXPECT_EQ(a.points[i].metrics[m].first, b.points[i].metrics[m].first);
      EXPECT_TRUE(BitEqual(a.points[i].metrics[m].second,
                           b.points[i].metrics[m].second))
          << a.points[i].metrics[m].first;
    }
  }
}

// --- options and plumbing ---------------------------------------------

TEST(ParallelSweep, ValidatesJobsOptions) {
  EXPECT_GE(resolve_jobs(0), 1u);   // auto maps to >= 1 hardware thread
  EXPECT_EQ(resolve_jobs(7), 7u);   // explicit counts pass through
}

// --- the ordering guarantee -------------------------------------------

TEST(ParallelSweep, ParallelMatchesSequentialBitExact) {
  SweepOptions j1;
  j1.jobs = 1;
  const auto seq = run_sweep("order-j1", DeterministicSpecs(12), j1);
  ASSERT_EQ(seq.points.size(), 12u);
  EXPECT_FALSE(seq.interrupted);

  SweepOptions j8;
  j8.jobs = 8;
  const auto par = run_sweep("order-j8", DeterministicSpecs(12), j8);
  ASSERT_EQ(par.points.size(), 12u);
  EXPECT_EQ(par.degraded, 0u);
  for (std::size_t i = 0; i < par.points.size(); ++i) {
    EXPECT_EQ(par.points[i].id, PointId(i))
        << "results must be delivered in request order";
  }
  ExpectBitIdentical(seq, par);
}

TEST(ParallelSweep, RetryStateMachineUnderFaultInjection) {
  // Every point crashes on its first execution (counted on disk, so the
  // count survives the fork) and succeeds deterministically afterwards:
  // a -j4 run must converge to the same bits as a -j1 run.
  auto make_specs = [](const std::string& tag) {
    std::vector<SweepPointSpec> pts;
    for (int i = 0; i < 6; ++i) {
      const std::string counter =
          TempPath("fault_" + tag + "_" + std::to_string(i));
      std::remove(counter.c_str());
      pts.push_back({PointId(i), [i, counter]() -> PointResult {
        AppendByte(counter);
        if (FileSize(counter) < 2) std::abort();
        return DeterministicPoint(i);
      }});
    }
    return pts;
  };

  SweepOptions j1;
  j1.jobs = 1;
  j1.retry = FastRetries(3);
  const auto seq = run_sweep("fault-j1", make_specs("s"), j1);

  SweepOptions j4;
  j4.jobs = 4;
  j4.retry = FastRetries(3);
  const auto par = run_sweep("fault-j4", make_specs("p"), j4);

  ASSERT_EQ(par.points.size(), 6u);
  EXPECT_EQ(par.degraded, 0u);
  for (const auto& pt : par.points) {
    EXPECT_EQ(pt.outcome, Outcome::kOk);
    EXPECT_EQ(pt.attempts, 2u) << pt.id;  // crash once, then succeed
  }
  ExpectBitIdentical(seq, par);
}

TEST(ParallelSweep, TimeoutDegradesOnePointOthersComplete) {
  std::vector<SweepPointSpec> pts;
  pts.push_back({"hung", []() {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return PointResult{};
  }});
  for (int i = 1; i < 5; ++i) {
    pts.push_back({PointId(i), [i]() {
      return DeterministicPoint(i);
    }});
  }
  SweepOptions opts;
  opts.jobs = 3;
  opts.timeout_seconds = 0.2;
  opts.retry = FastRetries(2);
  const auto sweep = run_sweep("timeout-pool", pts, opts);
  ASSERT_EQ(sweep.points.size(), 5u);
  EXPECT_EQ(sweep.points[0].outcome, Outcome::kTimeout);
  EXPECT_EQ(sweep.points[0].attempts, 2u);
  EXPECT_EQ(sweep.degraded, 1u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(sweep.points[i].outcome, Outcome::kOk) << i;
  }
}

// --- v2 checkpoints: order-independent resume -------------------------

TEST(ParallelCheckpoint, ShuffledRecordsResumeInFull) {
  const std::string path = TempPath("shuffled.ck");
  std::remove(path.c_str());
  const auto file = open_checkpoint(path, "shuffle-sweep");
  // Records land in an order no sequential sweep would produce.
  for (int i : {4, 0, 5, 2, 1, 3}) {
    CheckpointPoint p;
    p.index = static_cast<std::size_t>(i);
    p.id = PointId(i);
    p.metrics = DeterministicPoint(i).metrics;
    append_point(file, p);
  }

  std::vector<SweepPointSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back({PointId(i), []() -> PointResult {
      ADD_FAILURE() << "every point is in the checkpoint; nothing may run";
      return PointResult{};
    }});
  }
  SweepOptions opts;
  opts.checkpoint_path = path;
  opts.resume = true;
  opts.jobs = 4;
  const auto sweep = run_sweep("shuffle-sweep", specs, opts);
  ASSERT_EQ(sweep.points.size(), 6u);
  EXPECT_EQ(sweep.reused, 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sweep.points[i].id, PointId(i));
    EXPECT_EQ(sweep.points[i].index, i);  // re-anchored to this sweep's grid
    const auto expect = DeterministicPoint(static_cast<int>(i));
    ASSERT_EQ(sweep.points[i].metrics.size(), expect.metrics.size());
    for (std::size_t m = 0; m < expect.metrics.size(); ++m) {
      EXPECT_TRUE(BitEqual(sweep.points[i].metrics[m].second,
                           expect.metrics[m].second));
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelCheckpoint, DuplicateOkRecordIsRejected) {
  const std::string path = TempPath("dup.ck");
  std::remove(path.c_str());
  const auto file = open_checkpoint(path, "dup-sweep");
  CheckpointPoint p;
  p.id = "p0";
  p.metrics = {{"v", 1.0}};
  append_point(file, p);
  p.metrics = {{"v", 2.0}};  // second ok record for the same id
  append_point(file, p);
  EXPECT_THROW(load_checkpoint(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(ParallelCheckpoint, OkRecordSupersedesDegradedRecord) {
  const std::string path = TempPath("supersede.ck");
  std::remove(path.c_str());
  const auto file = open_checkpoint(path, "supersede-sweep");
  CheckpointPoint bad;
  bad.id = "p0";
  bad.outcome = Outcome::kTimeout;
  bad.message = "first try hung";
  append_point(file, bad);
  CheckpointPoint good;
  good.id = "p0";
  good.metrics = {{"v", 3.5}};
  append_point(file, good);  // how a resumed retry is persisted

  const auto ck = load_checkpoint(path);
  EXPECT_EQ(ck.version, 2);
  ASSERT_EQ(ck.points.size(), 2u);
  const CheckpointPoint* latest = ck.find("p0");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->outcome, Outcome::kOk);
  EXPECT_TRUE(BitEqual(latest->metric("v"), 3.5));
  std::remove(path.c_str());
}

TEST(ParallelCheckpoint, V1CheckpointsStillLoadAndResume) {
  const std::string path = TempPath("v1.ck");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << "performa-checkpoint v1 legacy-sweep\n";
    CheckpointPoint p;
    p.id = "p0";
    p.metrics = {{"v", 1.0}};
    out << encode_point(p) << "\n";
    p.metrics = {{"v", 2.0}};
    out << encode_point(p) << "\n";  // v1 tolerates ok-after-ok: appends win
    CheckpointPoint q;
    q.index = 1;
    q.id = "p1";
    q.metrics = DeterministicPoint(1).metrics;
    out << encode_point(q) << "\n";
  }
  const auto ck = load_checkpoint(path);
  EXPECT_EQ(ck.version, 1);
  ASSERT_EQ(ck.points.size(), 3u);
  EXPECT_TRUE(BitEqual(ck.find("p0")->metric("v"), 2.0));

  // open_checkpoint accepts the v1 header, and a parallel resume reads
  // it: sequential-era checkpoints survive the scheduler upgrade.
  open_checkpoint(path, "legacy-sweep");
  std::vector<SweepPointSpec> specs;
  specs.push_back({"p0", []() -> PointResult { std::abort(); }});
  specs.push_back({"p1", []() -> PointResult { std::abort(); }});
  SweepOptions opts;
  opts.checkpoint_path = path;
  opts.resume = true;
  opts.jobs = 2;
  const auto sweep = run_sweep("legacy-sweep", specs, opts);
  ASSERT_EQ(sweep.points.size(), 2u);
  EXPECT_EQ(sweep.reused, 2u);
  std::remove(path.c_str());
}

// --- wind-down: drain in-flight workers, record what finishes ---------

TEST(ParallelSweep, InterruptDrainsInFlightWorkers) {
  const std::string ck = TempPath("drain.ck");
  std::remove(ck.c_str());
  install_signal_handlers();
  clear_interrupt();

  auto make_specs = [](bool signal_parent) {
    std::vector<SweepPointSpec> pts;
    for (int i = 0; i < 6; ++i) {
      pts.push_back({PointId(i), [i, signal_parent]() {
        if (i == 0 && signal_parent) {
          ::kill(::getppid(), SIGINT);  // as if the user hit Ctrl-C
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return DeterministicPoint(i);
      }});
    }
    return pts;
  };

  SweepOptions opts;
  opts.checkpoint_path = ck;
  opts.jobs = 2;
  const auto sweep = run_sweep("drain-sweep", make_specs(true), opts);
  EXPECT_TRUE(sweep.interrupted);
  // Nothing new was dispatched after the signal, but the two in-flight
  // workers had a grace period: whatever finished was recorded ok.
  EXPECT_LE(sweep.points.size(), 2u);
  EXPECT_GE(sweep.points.size(), 1u);
  for (const auto& pt : sweep.points) {
    EXPECT_EQ(pt.outcome, Outcome::kOk) << pt.id;
  }

  // Resume completes the sweep and the union is bit-exact.
  clear_interrupt();
  install_signal_handlers();
  SweepOptions resume_opts = opts;
  resume_opts.resume = true;
  const auto resumed = run_sweep("drain-sweep", make_specs(false),
                                 resume_opts);
  ASSERT_EQ(resumed.points.size(), 6u);
  EXPECT_GE(resumed.reused, sweep.points.size());
  const auto golden = run_sweep("drain-golden", make_specs(false),
                                SweepOptions{});
  ExpectBitIdentical(golden, resumed);
  std::remove(ck.c_str());
}

// --- the parallel acceptance drill: SIGKILL mid-flight, resume --------

TEST(ParallelSweep, SigkillMidParallelSweepResumesBitExact) {
  const std::string ck = TempPath("kill4.ck");
  const std::string marker = TempPath("kill4.marker");
  std::remove(ck.c_str());
  std::remove(marker.c_str());

  auto make_points = [&marker]() {
    std::vector<SweepPointSpec> pts;
    for (int i = 0; i < 8; ++i) {
      pts.push_back({PointId(i), [i, marker]() -> PointResult {
        if (i == 5 && !FileExists(marker)) {
          // First execution of p5: hard-kill the supervising process
          // exactly like a machine crash, then die payload-less.
          AppendByte(marker);
          ::kill(::getppid(), SIGKILL);
          std::this_thread::sleep_for(std::chrono::seconds(1));
          std::_Exit(kExitError);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return DeterministicPoint(i);
      }});
    }
    return pts;
  };

  // Run the -j4 sweep in a child process so the SIGKILL does not take
  // down the test binary.
  const pid_t child = ::fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    SweepOptions opts;
    opts.checkpoint_path = ck;
    opts.jobs = 4;
    (void)run_sweep("kill4-drill", make_points(), opts);
    std::_Exit(7);  // unreachable: p5 kills this process mid-sweep
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "sweep must die from the SIGKILL";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The checkpoint holds a (possibly non-contiguous) strict subset of
  // the points, each of them intact; p5 cannot be among them.
  const auto mid = load_checkpoint(ck);
  EXPECT_LT(mid.points.size(), 8u);
  for (const auto& p : mid.points) {
    EXPECT_NE(p.id, "p5");
    EXPECT_EQ(p.outcome, Outcome::kOk);
  }

  // Resume at -j4: completed points come back from disk bit-exactly,
  // the rest (p5 included) run fresh.
  clear_interrupt();
  SweepOptions resume_opts;
  resume_opts.checkpoint_path = ck;
  resume_opts.resume = true;
  resume_opts.jobs = 4;
  const auto resumed = run_sweep("kill4-drill", make_points(), resume_opts);
  ASSERT_EQ(resumed.points.size(), 8u);
  EXPECT_EQ(resumed.reused, mid.points.size());
  EXPECT_EQ(resumed.degraded, 0u);

  const auto golden = run_sweep("kill4-golden", make_points(),
                                SweepOptions{});
  ExpectBitIdentical(golden, resumed);

  std::remove(ck.c_str());
  std::remove(marker.c_str());
}

// --- telemetry across the fork boundary -------------------------------

// The `"pid":N` value of one trace record or log line.
std::string PidOf(const std::string& line) {
  const std::size_t at = line.find("\"pid\":");
  if (at == std::string::npos) return "";
  return line.substr(at + 6, line.find(',', at) - at - 6);
}

// The `"tid":N` value of one log line.
std::string TidOf(const std::string& line) {
  const std::size_t at = line.find("\"tid\":");
  if (at == std::string::npos) return "";
  return line.substr(at + 6, line.find_first_of(",}", at) - at - 6);
}

TEST(ParallelSweep, WorkersAppendToSharedTraceWithDistinctPids) {
  // Every sink a worker can write to at once: a trace file, a log file,
  // and a flight recorder.
  const std::string trace = TempPath("trace.jsonl");
  const std::string log = TempPath("log.ndjson");
  const std::string flight = TempPath("flight");
  std::remove(trace.c_str());
  std::remove(log.c_str());
  obs::enable_trace_file(trace);
  obs::set_log_file(log);
  // The supervisor's thread logs before it forks: its workers must not
  // inherit its tid.
  PERFORMA_LOG(kInfo, "test.supervisor.start");
  ASSERT_TRUE(obs::init_flight(flight));
  const std::string parent_flight = obs::flight_path();
  std::vector<SweepPointSpec> specs = DeterministicSpecs(8);
  for (SweepPointSpec& spec : specs) {
    spec.fn = [fn = spec.fn, id = spec.id]() {
      PERFORMA_LOG(kInfo, "test.worker.point").kv("point", id);
      return fn();
    };
  }
  SweepOptions opts;
  opts.jobs = 4;
  const auto sweep = run_sweep("trace-j4", specs, opts);
  obs::flush_trace();
  obs::disable_trace();
  obs::reset_log_for_test();
  ASSERT_EQ(sweep.points.size(), 8u);

  // One file per sink: workers append to the inherited trace and log
  // fds, so no per-worker file is ever made.
  EXPECT_TRUE(testing::SiblingFiles(trace, ".frag.").empty());
  EXPECT_TRUE(testing::SiblingFiles(log, ".frag.").empty());
  // Clean worker exits remove their flight files; the parent's stays.
  EXPECT_TRUE(FileExists(parent_flight));
  EXPECT_EQ(testing::SiblingFiles(flight, ".flight.").size(), 1u);
  obs::disable_flight(/*keep_file=*/false);

  std::ifstream in(trace);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "[");
  const std::string self = std::to_string(::getpid());
  std::set<std::string> pids;
  std::size_t records = 0;
  std::size_t worker_spans = 0;
  std::size_t parent_spans = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++records;
    // Structurally complete trace_event record, comma-terminated.
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.substr(line.size() - 2), "},") << line;
    EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos) << line;
    const std::string pid = PidOf(line);
    ASSERT_FALSE(pid.empty()) << line;
    pids.insert(pid);
    if (line.find("\"runner.worker.point\"") != std::string::npos) {
      ++worker_spans;
      // Worker records carry the worker's pid, not the supervisor's.
      EXPECT_NE(pid, self) << line;
    }
    if (line.find("\"runner.point\"") != std::string::npos) {
      ++parent_spans;
      EXPECT_EQ(pid, self) << line;
      EXPECT_NE(line.find("\"outcome\":\"ok\""), std::string::npos) << line;
    }
  }
  EXPECT_GE(records, 17u);  // 8 worker + 8 parent point spans + the sweep
  EXPECT_EQ(worker_spans, 8u);
  EXPECT_EQ(parent_spans, 8u);
  // A -j4 pool forks one process per point: the shared timeline must
  // show the supervisor plus several distinct worker pids.
  EXPECT_GE(pids.size(), 3u) << "want distinct worker pids in the trace";

  // Each worker's log line lands in the parent's log under its own pid.
  std::ifstream log_in(log);
  std::set<std::string> logged_points;
  while (std::getline(log_in, line)) {
    if (line.find("\"event\":\"test.worker.point\"") == std::string::npos) {
      continue;
    }
    EXPECT_NE(PidOf(line), self) << line;
    EXPECT_TRUE(pids.count(PidOf(line)) == 1) << line;
    EXPECT_EQ(TidOf(line), PidOf(line)) << line;  // a worker's one thread
    logged_points.insert(line.substr(line.find("\"point\":")));
  }
  EXPECT_EQ(logged_points.size(), 8u);
  std::remove(trace.c_str());
  std::remove(log.c_str());
}

// --- kernel thread-count determinism ----------------------------------

// One sweep point: solve a cluster large enough that the blocked kernels
// genuinely fan out across the linalg pool (T=2 repair, N=20 lumped:
// 231 phases, GEMM-dominated logred), and emit every released measure
// plus the trust verdict as metrics.
PointResult SolveClusterPoint(double rho) {
  const map::ServerModel server(
      medist::exponential_from_mean(90.0),
      medist::make_tpt(medist::TptSpec{2, 1.4, 0.2, 10.0}), 2.0, 0.2);
  const map::Mmpp mmpp = map::LumpedAggregate(server, 20).mmpp();
  const qbd::QbdSolution sol(qbd::m_mmpp_1(mmpp, rho * mmpp.mean_rate()));
  PointResult out;
  out.metrics.emplace_back("eq", sol.mean_queue_length());
  out.metrics.emplace_back("p_empty", sol.probability_empty());
  out.metrics.emplace_back("tail100", sol.tail(100));
  out.metrics.emplace_back(
      "verdict", static_cast<double>(sol.trust().verdict));
  return out;
}

std::vector<SweepPointSpec> SolveClusterSpecs() {
  std::vector<SweepPointSpec> pts;
  int i = 0;
  for (const double rho : {0.35, 0.6, 0.85}) {
    pts.push_back({PointId(i++), [rho]() { return SolveClusterPoint(rho); }});
  }
  return pts;
}

TEST(ThreadDeterminism, SweepIsByteIdenticalForAnyPoolWidth) {
  // The released CSV is a deterministic formatting of these doubles, so
  // byte-identical CSVs across PERFORMA_THREADS reduces to bit-identical
  // metric values -- including the verdict column. The pool override is
  // inherited across the sweep's fork into isolated workers.
  SweepOptions opts;
  opts.jobs = 2;
  linalg::set_pool_threads(1);
  const auto t1 = run_sweep("pool-w1", SolveClusterSpecs(), opts);
  linalg::set_pool_threads(2);
  const auto t2 = run_sweep("pool-w2", SolveClusterSpecs(), opts);
  linalg::set_pool_threads(8);
  const auto t8 = run_sweep("pool-w8", SolveClusterSpecs(), opts);
  linalg::set_pool_threads(0);  // back to the environment default

  ASSERT_EQ(t1.points.size(), 3u);
  EXPECT_EQ(t1.degraded, 0u);
  EXPECT_EQ(t8.degraded, 0u);
  ExpectBitIdentical(t1, t2);
  ExpectBitIdentical(t1, t8);
  for (const auto& pt : t1.points) {
    ASSERT_EQ(pt.metrics.back().first, "verdict");
    EXPECT_TRUE(BitEqual(
        pt.metrics.back().second,
        static_cast<double>(qbd::TrustVerdict::kCertified)))
        << pt.id;
  }
}

TEST(ParallelSweep, PoolMetricsCountPointsAndRetries) {
  obs::reset_metrics_for_test();
  auto make_specs = [](const std::string& tag) {
    std::vector<SweepPointSpec> pts;
    for (int i = 0; i < 4; ++i) {
      const std::string counter =
          TempPath("obsfault_" + tag + "_" + std::to_string(i));
      std::remove(counter.c_str());
      pts.push_back({PointId(i), [i, counter]() -> PointResult {
        AppendByte(counter);
        if (i == 0 && FileSize(counter) < 2) std::abort();
        return DeterministicPoint(i);
      }});
    }
    return pts;
  };
  SweepOptions opts;
  opts.jobs = 2;
  opts.retry = FastRetries(3);
  const auto sweep = run_sweep("obs-metrics", make_specs("m"), opts);
  ASSERT_EQ(sweep.points.size(), 4u);
  EXPECT_EQ(obs::counter("runner.points.done").value(), 4u);
  EXPECT_EQ(obs::counter("runner.points.degraded").value(), 0u);
  EXPECT_EQ(obs::counter("runner.retries").value(), 1u);  // p0 crashed once
  EXPECT_EQ(obs::histogram("runner.point.seconds").count(), 4u);
  EXPECT_GT(obs::gauge("runner.point.latency_ema").value(), 0.0);
  // The pool is idle again.
  EXPECT_EQ(obs::gauge("runner.points.inflight").value(), 0.0);
  EXPECT_EQ(obs::gauge("runner.points.retrying").value(), 0.0);
  obs::reset_metrics_for_test();
}

// --- one thread budget: pool tasks inside a sweep point ---------------

// A point whose pool tasks fan out again: each of 4 outer tasks runs an
// inner parallel_for and a 96x96 product (large enough that the product
// kernels fan out on their own). Every inner result is summed on its
// task's thread in index order, so the metrics are width-independent.
PointResult NestedFanOutPoint() {
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 16;
  constexpr std::size_t kDim = 96;
  linalg::Matrix a(kDim, kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      a(i, j) = 1.0 / static_cast<double>(1 + i + 2 * j);
    }
  }
  std::vector<double> sums(kOuter);
  linalg::parallel_for(kOuter, [&](std::size_t t) {
    std::vector<double> inner(kInner);
    linalg::parallel_for(kInner, [&](std::size_t j) {
      inner[j] = std::sqrt(static_cast<double>(1 + t * kInner + j));
    });
    const linalg::Matrix p = a * (a * static_cast<double>(t + 1));
    double acc = 0.0;
    for (const double x : inner) acc += x;
    for (const double x : p.data()) acc += x;
    sums[t] = acc;
  });
  PointResult out;
  for (std::size_t t = 0; t < kOuter; ++t) {
    out.metrics.emplace_back("task" + std::to_string(t), sums[t]);
  }
  return out;
}

TEST(PoolNesting, NestedParallelForRunsInlineAndMatchesWidthOne) {
  // A nested call used to deadlock (a worker's run() waited for itself).
  // Each width runs in a forked sweep worker whose per-point timeout is
  // the watchdog: a hang degrades the point instead of stalling ctest.
  SweepOptions opts;
  opts.jobs = 1;
  opts.timeout_seconds = 30.0;
  opts.retry = FastRetries(1);
  const std::vector<SweepPointSpec> specs{{"nested", NestedFanOutPoint}};
  std::vector<SweepResult> runs;
  for (const unsigned width : {1u, 2u, 4u}) {
    linalg::set_pool_threads(width);
    runs.push_back(run_sweep("nested-w" + std::to_string(width), specs, opts));
  }
  linalg::set_pool_threads(0);
  for (const SweepResult& run : runs) {
    ASSERT_EQ(run.points.size(), 1u);
    EXPECT_EQ(run.points[0].outcome, Outcome::kOk) << run.points[0].message;
  }
  ExpectBitIdentical(runs[0], runs[1]);
  ExpectBitIdentical(runs[0], runs[2]);
}

TEST(PoolNesting, ParallelMapRethrowsLowestIndexAfterAllTasksFinish) {
  linalg::set_pool_threads(4);
  std::atomic<int> finished{0};
  std::string caught;
  int finished_at_catch = -1;
  try {
    bench::parallel_map(8, [&](std::size_t i) -> int {
      // Task 5 throws at once, task 2 later, task 7 last of all: the
      // helper must wait for every task and report task 2.
      if (i == 2 || i == 7) {
        std::this_thread::sleep_for(std::chrono::milliseconds(i * 10));
      }
      ++finished;
      if (i == 2 || i == 5) throw std::runtime_error("task " + std::to_string(i));
      return static_cast<int>(i);
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
    finished_at_catch = finished.load();
  }
  const auto squares =
      bench::parallel_map(6, [](std::size_t i) { return i * i; });
  linalg::set_pool_threads(0);
  EXPECT_EQ(caught, "task 2");
  EXPECT_EQ(finished_at_catch, 8);
  EXPECT_EQ(squares, (std::vector<std::size_t>{0, 1, 4, 9, 16, 25}));
}

TEST(PoolNesting, SpansOnPoolThreadsOfAWorkerReachTheTrace) {
  // A forked worker _exits without running thread_local destructors; the
  // spans its pool threads buffered must still land in the trace.
  const std::string trace = TempPath("pool_spans.jsonl");
  std::remove(trace.c_str());
  obs::enable_trace_file(trace);
  linalg::set_pool_threads(2);
  std::vector<SweepPointSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back({PointId(i), []() {
      linalg::parallel_for(4, [](std::size_t) {
        PERFORMA_SPAN("test.pool.task");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      });
      return PointResult{};
    }});
  }
  SweepOptions opts;
  opts.jobs = 2;
  const auto sweep = run_sweep("pool-spans", specs, opts);
  linalg::set_pool_threads(0);
  obs::disable_trace();
  ASSERT_EQ(sweep.points.size(), 3u);
  std::ifstream in(trace);
  std::string line;
  std::size_t spans = 0;
  while (std::getline(in, line)) {
    if (line.find("\"test.pool.task\"") != std::string::npos) ++spans;
  }
  EXPECT_EQ(spans, 12u);
  std::remove(trace.c_str());
}

TEST(PoolShare, SweepWorkerDefaultWidthIsItsShareOfTheMachine) {
  // Neither PERFORMA_THREADS nor set_pool_threads sets a width: each of
  // the sweep's concurrent workers gets max(1, hardware threads / jobs).
  const char* env = std::getenv("PERFORMA_THREADS");
  const std::string saved = env != nullptr ? env : "";
  ::unsetenv("PERFORMA_THREADS");
  linalg::set_pool_threads(0);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<SweepPointSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back({PointId(i), []() {
      PointResult out;
      out.metrics.emplace_back("width",
                               static_cast<double>(linalg::pool_threads()));
      return out;
    }});
  }
  for (const unsigned jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs = " + std::to_string(jobs));
    SweepOptions opts;
    opts.jobs = jobs;
    const auto sweep = run_sweep("pool-share", specs, opts);
    ASSERT_EQ(sweep.points.size(), 4u);
    for (const auto& pt : sweep.points) {
      EXPECT_EQ(pt.metric("width"), static_cast<double>(std::max(1u, hw / jobs)));
    }
  }
  // The supervisor itself keeps the whole machine.
  EXPECT_EQ(linalg::pool_threads(), hw);
  if (env != nullptr) ::setenv("PERFORMA_THREADS", saved.c_str(), 1);
  linalg::set_pool_threads(0);
}

}  // namespace
}  // namespace performa::runner

// Tests for performad's solution cache and crash-only journal: LRU
// eviction under a byte budget, journal record round-trips (bit-exact
// via hex-floats), corruption tolerance (CRC-dropped records, torn
// tails), later-records-win semantics, atomic compaction, and
// engine-level rehydration.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/cluster_model.h"
#include "daemon/cache.h"
#include "daemon/journal.h"
#include "daemon/query.h"
#include "linalg/errors.h"

namespace performa::daemon {
namespace {

class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/performad_cache_test_XXXXXX";
    dir_ = ::mkdtemp(pattern);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::string cmd = "rm -rf '" + dir_ + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

/// A real solved model entry (exp repair solves in microseconds).
CachedSolution make_entry(double rho) {
  core::ClusterParams params;  // paper defaults, exponential repair
  const core::ClusterModel model(params);
  const double lambda = model.lambda_for_rho(rho);
  CachedSolution entry;
  entry.solution =
      std::make_shared<qbd::QbdSolution>(model.solve(lambda));
  entry.nu_bar = model.mean_service_rate();
  entry.availability = model.availability();
  entry.utilization = rho;
  entry.lambda = lambda;
  return entry;
}

TEST(SolutionCacheTest, HitRefreshesRecencyAndCountsStats) {
  SolutionCache cache(std::size_t{1} << 20);
  cache.put("a", make_entry(0.3));
  CachedSolution out;
  EXPECT_FALSE(cache.get("missing", out));
  EXPECT_TRUE(cache.get("a", out));
  ASSERT_NE(out.solution, nullptr);
  EXPECT_DOUBLE_EQ(out.utilization, 0.3);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SolutionCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  const CachedSolution probe = make_entry(0.3);
  const std::size_t one = solution_footprint_bytes(probe, "k1");
  // Budget for two entries, not three.
  SolutionCache cache(2 * one + one / 2);
  cache.put("k1", make_entry(0.3));
  cache.put("k2", make_entry(0.4));
  CachedSolution out;
  ASSERT_TRUE(cache.get("k1", out));  // k1 becomes MRU; k2 is now LRU
  cache.put("k3", make_entry(0.5));  // must evict k2
  EXPECT_TRUE(cache.get("k1", out, /*count_stats=*/false));
  EXPECT_FALSE(cache.get("k2", out, /*count_stats=*/false));
  EXPECT_TRUE(cache.get("k3", out, /*count_stats=*/false));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SolutionCacheTest, OversizedSoleEntryIsStillAdmitted) {
  SolutionCache cache(16);  // absurdly small budget
  cache.put("big", make_entry(0.3));
  CachedSolution out;
  EXPECT_TRUE(cache.get("big", out, /*count_stats=*/false));
}

TEST(SolutionCacheTest, ShrinkingBudgetEvictsImmediately) {
  SolutionCache cache(std::size_t{1} << 20);
  cache.put("a", make_entry(0.3));
  cache.put("b", make_entry(0.4));
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.set_budget_bytes(16);
  EXPECT_EQ(cache.stats().entries, 1u);  // only the MRU survives
  CachedSolution out;
  EXPECT_TRUE(cache.get("b", out, /*count_stats=*/false));
}

TEST(JournalRecordTest, RoundTripsBitExactly) {
  const CachedSolution entry = make_entry(0.65);
  const std::string record = encode_journal_record("model-key", entry, 3);
  std::string key;
  CachedSolution decoded;
  ASSERT_TRUE(decode_journal_record(record, key, decoded));
  EXPECT_EQ(key, "model-key");
  EXPECT_EQ(decoded.nu_bar, entry.nu_bar);
  EXPECT_EQ(decoded.availability, entry.availability);
  EXPECT_EQ(decoded.utilization, entry.utilization);
  EXPECT_EQ(decoded.lambda, entry.lambda);
  ASSERT_NE(decoded.solution, nullptr);
  const qbd::QbdSolution& a = *entry.solution;
  const qbd::QbdSolution& b = *decoded.solution;
  ASSERT_EQ(a.phase_dim(), b.phase_dim());
  for (std::size_t i = 0; i < a.phase_dim(); ++i) {
    EXPECT_EQ(a.pi0()[i], b.pi0()[i]);  // bit-exact, not approximate
    EXPECT_EQ(a.pi1()[i], b.pi1()[i]);
    for (std::size_t j = 0; j < a.phase_dim(); ++j) {
      EXPECT_EQ(a.r()(i, j), b.r()(i, j));
    }
  }
  // Derived metrics reproduce exactly too.
  EXPECT_EQ(a.mean_queue_length(), b.mean_queue_length());
  EXPECT_EQ(a.tail(40), b.tail(40));
}

TEST(JournalRecordTest, DecayRateSurvivesTheRoundTrip) {
  // The journal stores R, not sp(R): the rehydrating constructor computes
  // it once (for its sp(R) < 1 check) and serves it from then on.
  const CachedSolution entry = make_entry(0.8);
  std::string key;
  CachedSolution decoded;
  ASSERT_TRUE(decode_journal_record(encode_journal_record("k", entry, 0),
                                    key, decoded));
  const qbd::QbdSolution& b = *decoded.solution;
  EXPECT_EQ(b.decay_rate(), entry.solution->decay_rate());
  EXPECT_EQ(b.decay_rate(), qbd::spectral_radius(b.r()));
  EXPECT_EQ(b.decay_rate(), b.report().spectral_radius);
}

TEST(JournalRecordTest, CorruptedRecordsRejected) {
  const CachedSolution entry = make_entry(0.5);
  std::string record = encode_journal_record("k", entry, 0);
  std::string key;
  CachedSolution out;

  std::string flipped = record;
  flipped[record.size() / 2] ^= 1;  // payload bit flip -> CRC mismatch
  EXPECT_FALSE(decode_journal_record(flipped, key, out));

  // Torn tail (SIGKILL mid-write of a non-atomic writer).
  EXPECT_FALSE(
      decode_journal_record(record.substr(0, record.size() / 2), key, out));

  // Well-formed record but numerically nonsensical content: the
  // rehydration constructor's validation must reject it (here: a pi
  // pair that cannot normalize to a distribution).
  const linalg::Vector zero(entry.solution->phase_dim(), 0.0);
  EXPECT_THROW(qbd::QbdSolution(entry.solution->r(), zero, zero),
               NumericalError);
}

TEST(JournalTest, AppendLoadRoundTripAndLaterRecordsWin) {
  TempDir tmp;
  const std::string path = tmp.path("cache.journal");
  {
    CacheJournal journal(path, /*sync=*/false);
    journal.append("m1", make_entry(0.3));
    journal.append("m2", make_entry(0.5));
    journal.append("m1", make_entry(0.7));  // supersedes the first m1
  }
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.records, 3u);
  EXPECT_EQ(load.dropped_records, 0u);
  ASSERT_EQ(load.entries.size(), 2u);
  EXPECT_EQ(load.entries[0].first, "m1");
  EXPECT_DOUBLE_EQ(load.entries[0].second.utilization, 0.7);  // later wins
  EXPECT_EQ(load.entries[1].first, "m2");
}

TEST(JournalTest, ToleratesTornTailAndGarbageLines) {
  TempDir tmp;
  const std::string path = tmp.path("cache.journal");
  {
    CacheJournal journal(path, /*sync=*/false);
    journal.append("good", make_entry(0.4));
  }
  {
    // Simulate a torn append and line noise after the good record.
    std::ofstream out(path, std::ios::app);
    out << "P deadbeef torn|record|that|never|finish";  // no newline
  }
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.entries.size(), 1u);
  EXPECT_EQ(load.records, 1u);
  EXPECT_EQ(load.dropped_records, 1u);
}

TEST(JournalTest, MissingFileIsFirstBoot) {
  const JournalLoad load = load_journal("/tmp/does-not-exist-performad");
  EXPECT_TRUE(load.entries.empty());
  EXPECT_EQ(load.records, 0u);
}

TEST(JournalTest, ForeignFileRejected) {
  TempDir tmp;
  const std::string path = tmp.path("notes.txt");
  {
    std::ofstream out(path);
    out << "this is not a journal\n";
  }
  EXPECT_THROW(load_journal(path), InvalidArgument);
  EXPECT_THROW(CacheJournal(path, false), InvalidArgument);
}

TEST(JournalTest, CompactionKeepsOnlyTheSnapshot) {
  TempDir tmp;
  const std::string path = tmp.path("cache.journal");
  CacheJournal journal(path, /*sync=*/false);
  journal.append("a", make_entry(0.3));
  journal.append("a", make_entry(0.4));
  journal.append("b", make_entry(0.5));

  SolutionCache cache(std::size_t{1} << 20);
  cache.put("b", make_entry(0.5));
  journal.compact(cache.snapshot());

  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.entries.size(), 1u);
  EXPECT_EQ(load.entries[0].first, "b");
  EXPECT_EQ(load.dropped_records, 0u);

  // The journal keeps accepting appends on the compacted file.
  journal.append("c", make_entry(0.6));
  EXPECT_EQ(load_journal(path).entries.size(), 2u);
}

TEST(EngineRehydrationTest, RestartsWarmFromTheJournal) {
  TempDir tmp;
  EngineConfig config;
  config.journal_path = tmp.path("engine.journal");
  config.sync_journal = false;

  // First life: solve once (one miss), which journals the solution.
  {
    QueryEngine engine(config);
    engine.rehydrate();
    const std::string response =
        engine.handle_line(R"({"op":"mean","rho":0.6,"id":"cold"})");
    EXPECT_NE(response.find("\"cached\":false"), std::string::npos)
        << response;
  }

  // Second life (the process died; no compaction ran): the same query
  // must be a cache hit immediately -- zero solves.
  {
    QueryEngine engine(config);
    const JournalLoad load = engine.rehydrate();
    EXPECT_EQ(load.entries.size(), 1u);
    EXPECT_EQ(load.dropped_records, 0u);
    const std::string response =
        engine.handle_line(R"({"op":"mean","rho":0.6,"id":"warm"})");
    EXPECT_NE(response.find("\"cached\":true"), std::string::npos)
        << response;
    EXPECT_EQ(engine.stats().solves, 0u);
    EXPECT_GT(engine.cache().stats().hits, 0u);
  }
}

TEST(EngineTrustTest, ServedAnswersCarryTrustVerdict) {
  EngineConfig config;  // default policy: healthy solves certify
  QueryEngine engine(config);
  const std::string response =
      engine.handle_line(R"({"op":"mean","rho":0.6})");
  EXPECT_NE(response.find("\"trust\":\"certified\""), std::string::npos)
      << response;
  EXPECT_EQ(engine.stats().rejected, 0u);
}

TEST(EngineTrustTest, RejectedAnswerIsExplicitAndNeverCachedOrJournaled) {
  TempDir tmp;
  EngineConfig config;
  config.journal_path = tmp.path("trust.journal");
  config.sync_journal = false;
  // Impossible certified band with a rejection threshold below any
  // achievable residual: every solve is rejected after the ladder.
  config.trust.r_residual_certified = 1e-32;
  config.trust.r_residual_rejected = 1e-30;
  {
    QueryEngine engine(config);
    engine.rehydrate();
    const std::string response =
        engine.handle_line(R"({"op":"mean","rho":0.6,"id":"q1"})");
    // No stale fallback exists, so the refusal is an error response with
    // the explicit outcome and the trust evidence.
    EXPECT_NE(response.find("\"outcome\":\"rejected-answer\""),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("r-residual"), std::string::npos) << response;
    EXPECT_EQ(engine.stats().rejected, 1u);
    EXPECT_EQ(engine.stats().solve_failures, 0u);
    // The wrong answer must not have entered the cache...
    EXPECT_EQ(engine.cache().stats().entries, 0u);
  }
  // ...nor the journal: a fresh engine rehydrates to nothing.
  {
    QueryEngine engine(config);
    const JournalLoad load = engine.rehydrate();
    EXPECT_EQ(load.entries.size(), 0u);
    EXPECT_EQ(load.dropped_records, 0u);
  }
}

TEST(EngineTrustTest, StatsOpReportsRejections) {
  EngineConfig config;
  config.trust.r_residual_certified = 1e-32;
  config.trust.r_residual_rejected = 1e-30;
  QueryEngine engine(config);
  engine.handle_line(R"({"op":"mean","rho":0.5})");
  const std::string stats = engine.handle_line(R"({"op":"stats"})");
  EXPECT_NE(stats.find("\"rejected\":1"), std::string::npos) << stats;
}

}  // namespace
}  // namespace performa::daemon

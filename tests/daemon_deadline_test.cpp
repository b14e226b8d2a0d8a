// Deterministic tests of cooperative deadline propagation and graceful
// degradation -- the acceptance drill for performad's robustness story:
//
//   1. A solve under an already-expired deadline aborts *cooperatively*
//      (typed DeadlineExceeded carrying a SolveReport with the
//      deadline_exceeded flag, not a timeout or a crash).
//   2. The runner taxonomy classifies it as Outcome::kDeadlineExceeded.
//   3. The engine serves the last known-good cached answer tagged
//      stale:true when a refresh blows its deadline, and a hard error
//      only when the cache has nothing to offer.
//
// Everything here uses zero/negative deadline budgets, so the tests are
// deterministic: no sleeps, no timing races.
#include <gtest/gtest.h>

#include <string>

#include "core/cluster_model.h"
#include "daemon/query.h"
#include "linalg/errors.h"
#include "obs/deadline.h"
#include "qbd/solve_report.h"
#include "runner/outcome.h"

namespace performa {
namespace {

TEST(DeadlineSolveTest, ExpiredDeadlineAbortsCooperativelyWithReport) {
  core::ClusterParams params;
  const core::ClusterModel model(params);
  const double lambda = model.lambda_for_rho(0.7);

  obs::DeadlineScope scope(obs::Deadline::after_seconds(0.0));
  ASSERT_TRUE(obs::deadline_expired());
  try {
    model.solve(lambda);
    FAIL() << "expected qbd::DeadlineExceeded";
  } catch (const qbd::DeadlineExceeded& e) {
    // The exception carries the diagnostics of the aborted solve, with
    // the deadline flag raised, and renders it in summaries.
    EXPECT_TRUE(e.report().deadline_exceeded);
    EXPECT_FALSE(e.report().converged);
    EXPECT_NE(e.report().summary().find("deadline exceeded"),
              std::string::npos);
  }
}

TEST(DeadlineSolveTest, RunnerClassifiesDeadlineExceeded) {
  runner::ClassifiedError classified;
  try {
    core::ClusterParams params;
    const core::ClusterModel model(params);
    obs::DeadlineScope scope(obs::Deadline::after_seconds(-1.0));
    model.solve(model.lambda_for_rho(0.7));
  } catch (...) {
    classified = runner::classify_current_exception();
  }
  EXPECT_EQ(classified.outcome, runner::Outcome::kDeadlineExceeded);
  EXPECT_EQ(classified.exit_code, runner::kExitDeadlineExceeded);
  EXPECT_EQ(to_string(classified.outcome), std::string("deadline-exceeded"));
  // Retries get a fresh budget, so the outcome is transient.
  EXPECT_TRUE(runner::is_transient(classified.outcome));
  EXPECT_FALSE(classified.message.empty());
}

TEST(DeadlineSolveTest, NestedScopeCannotExtendTheBudget) {
  obs::DeadlineScope outer(obs::Deadline::after_seconds(0.0));
  obs::DeadlineScope inner(obs::Deadline::after_seconds(3600.0));
  // The inner scope's generous budget must not override the outer
  // expired one.
  EXPECT_TRUE(obs::deadline_expired());
}

class EngineDegradationTest : public ::testing::Test {
 protected:
  EngineDegradationTest() : engine_(daemon::EngineConfig{}) {}

  std::string handle_with_deadline(const std::string& line,
                                   double deadline_s) {
    obs::DeadlineScope scope(obs::Deadline::after_seconds(deadline_s));
    return engine_.handle_line(line);
  }

  daemon::QueryEngine engine_;
};

TEST_F(EngineDegradationTest, ServesStaleCachedAnswerOnBlownDeadline) {
  // Warm the cache with a generous budget.
  const std::string warm =
      handle_with_deadline(R"({"op":"mean","rho":0.7,"id":"warm"})", 60.0);
  ASSERT_NE(warm.find("\"ok\":true"), std::string::npos) << warm;
  ASSERT_NE(warm.find("\"stale\":false"), std::string::npos) << warm;

  // Force a recompute under an already-expired deadline: the solve
  // aborts cooperatively and the engine falls back to the cached
  // solution, tagged stale with the failure's outcome.
  const std::string stale = handle_with_deadline(
      R"({"op":"mean","rho":0.7,"refresh":true,"id":"stale"})", 0.0);
  EXPECT_NE(stale.find("\"ok\":true"), std::string::npos) << stale;
  EXPECT_NE(stale.find("\"stale\":true"), std::string::npos) << stale;
  EXPECT_NE(stale.find("\"outcome\":\"deadline-exceeded\""),
            std::string::npos)
      << stale;
  // Stale or not, the answer is the real cached value.
  EXPECT_NE(stale.find("\"value\":"), std::string::npos) << stale;
  EXPECT_EQ(engine_.stats().deadline_exceeded, 1u);
  EXPECT_EQ(engine_.cache().stats().stale_serves, 1u);
}

TEST_F(EngineDegradationTest, ColdCacheDeadlineIsAnExplicitError) {
  const std::string response = handle_with_deadline(
      R"({"op":"mean","rho":0.8,"id":"cold"})", -1.0);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"outcome\":\"deadline-exceeded\""),
            std::string::npos)
      << response;
  EXPECT_EQ(response.find("\"stale\""), std::string::npos) << response;
}

TEST_F(EngineDegradationTest, SolverFailureAlsoDegradesToStale) {
  // Warm the cache, then ask for a refresh of a spec that now fails:
  // rho extremely close to 1 still solves, so instead drive failure by
  // an expired deadline -- covered above -- and by an unstable refresh
  // via a *different* key, which must NOT borrow this key's cache entry.
  const std::string warm =
      handle_with_deadline(R"({"op":"mean","rho":0.5})", 60.0);
  ASSERT_NE(warm.find("\"ok\":true"), std::string::npos);
  // A different rho is a different model key: no stale fallback there.
  const std::string other = handle_with_deadline(
      R"({"op":"mean","rho":0.51,"refresh":true})", 0.0);
  EXPECT_NE(other.find("\"ok\":false"), std::string::npos) << other;
}

TEST_F(EngineDegradationTest, ParameterOpsIgnoreTheSolverDeadline) {
  // blowup/availability need no solve; an expired deadline must not
  // block them (they are the queries an operator fires when the system
  // is struggling).
  const std::string response = handle_with_deadline(
      R"({"op":"blowup","repair":"tpt","rho":0.9})", 0.0);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"region\":"), std::string::npos) << response;
}

}  // namespace
}  // namespace performa

// Guardrail behaviour of the QBD R solver: drift pre-check, the
// one-attempt SolverFailure, SolveReport diagnostics, non-finite
// sentinels, and the near-blow-up acceptance scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "core/blowup.h"
#include "core/cluster_model.h"
#include "linalg/expm.h"
#include "linalg/lu.h"
#include "map/lumped_aggregate.h"
#include "medist/tpt.h"
#include "qbd/solution.h"
#include "test_util.h"

namespace performa::qbd {
namespace {

using medist::exponential_from_mean;
using medist::make_tpt;
using medist::TptSpec;

map::Mmpp PaperClusterMmpp(unsigned t_phases, unsigned n_servers) {
  const map::ServerModel server(exponential_from_mean(90.0),
                                make_tpt(TptSpec{t_phases, 1.4, 0.2, 10.0}),
                                2.0, 0.2);
  return map::LumpedAggregate(server, n_servers).mmpp();
}

TEST(DriftPrecheck, UnstableModelRejectedBeforeIterating) {
  const auto mmpp = PaperClusterMmpp(5, 2);
  const double nu_bar = mmpp.mean_rate();
  // lambda > nu_bar: the mean-drift condition fails; the solver must throw
  // the typed error up front instead of burning max_iterations.
  const auto blocks = m_mmpp_1(mmpp, 1.05 * nu_bar);
  try {
    solve_r(blocks);
    FAIL() << "unstable model accepted";
  } catch (const UnstableModel& e) {
    EXPECT_GE(e.utilization(), 1.0);
    EXPECT_NE(std::string(e.what()).find("drift"), std::string::npos);
  }
}

TEST(DriftPrecheck, BoundaryCaseAtExactSaturation) {
  const auto mmpp = PaperClusterMmpp(3, 2);
  const auto blocks = m_mmpp_1(mmpp, mmpp.mean_rate());
  EXPECT_THROW(solve_r(blocks), UnstableModel);
}

TEST(DriftPrecheck, StableModelPassesAndReportsUtilization) {
  const auto mmpp = PaperClusterMmpp(5, 2);
  const auto res = solve_r(m_mmpp_1(mmpp, 0.6 * mmpp.mean_rate()));
  EXPECT_TRUE(res.report.converged);
  testing::ExpectClose(res.report.utilization, 0.6, 1e-6, "rho");
}

TEST(Guardrails, NearBlowupConvergesWithDiagnostics) {
  // Acceptance scenario: rho within 1e-3 of the first blow-up point
  // rho_1 (TPT repairs). The solve must either converge -- reporting the
  // algorithm -- or fail fast with a SolveReport diagnostic.
  core::ClusterParams params;
  params.down = make_tpt(TptSpec{10, 1.4, 0.2, 10.0});
  const core::ClusterModel model(params);
  const double rho1 = core::blowup_utilizations(model.blowup_params())[0];
  for (const double rho : {rho1 - 1e-3, rho1, rho1 + 1e-3}) {
    try {
      const auto sol = model.solve(model.lambda_for_rho(rho));
      EXPECT_TRUE(sol.report().converged) << "rho=" << rho;
      EXPECT_LT(sol.report().final_defect, 1e-8) << "rho=" << rho;
      EXPECT_GT(sol.report().spectral_radius, 0.0);
      EXPECT_LT(sol.report().spectral_radius, 1.0);
      EXPECT_GT(sol.mean_queue_length(), 0.0);
    } catch (const SolverFailure& e) {
      // Fail-fast is also acceptable -- but only with the diagnostics.
      EXPECT_FALSE(e.report().attempts.empty()) << "rho=" << rho;
      EXPECT_NE(std::string(e.what()).find("SolveReport"), std::string::npos);
    }
  }
}

TEST(Guardrails, StagnatedLogredFailsWithOneAttempt) {
  // A natural failure, no starved budget: N=2 TPT T=10 repairs at
  // rho = 0.99999. Logarithmic reduction's G defect stalls above the
  // tolerance, and the solve throws at once with that one attempt.
  const auto mmpp = PaperClusterMmpp(10, 2);
  try {
    solve_r(m_mmpp_1(mmpp, 0.99999 * mmpp.mean_rate()));
    FAIL() << "expected SolverFailure";
  } catch (const SolverFailure& e) {
    const SolveReport& report = e.report();
    EXPECT_FALSE(report.converged);
    ASSERT_EQ(report.attempts.size(), 1u);
    const SolveAttempt& a = report.attempts[0];
    EXPECT_EQ(a.algorithm, SolveAlgorithm::kLogarithmicReduction);
    EXPECT_FALSE(a.converged);
    EXPECT_NE(a.note.find("G defect stagnated"), std::string::npos) << a.note;
    // The message must be self-contained for log files.
    const std::string what = e.what();
    EXPECT_NE(what.find("SolveReport"), std::string::npos) << what;
    EXPECT_NE(what.find("logarithmic-reduction"), std::string::npos) << what;
    // Both renderings describe the failed attempt: no winner, none of the
    // never-computed zero fields, and the defect the attempt reached.
    char defect[32];
    std::snprintf(defect, sizeof defect, "defect=%.3e", a.defect);
    for (const std::string& text : {report.to_string(), report.summary()}) {
      EXPECT_EQ(text.find("winner="), std::string::npos) << text;
      EXPECT_EQ(text.find("defect=0.000e+00"), std::string::npos) << text;
      EXPECT_EQ(text.find("cond~"), std::string::npos) << text;
      EXPECT_NE(text.find(defect), std::string::npos) << text;
    }
    const std::string s = report.summary();
    EXPECT_NE(s.find("solver failed"), std::string::npos) << s;
    EXPECT_NE(s.find("over 1 attempt(s)"), std::string::npos) << s;
    // No converged attempt: the trail has no '*' marker.
    EXPECT_EQ(s.find('*'), std::string::npos) << s;
    EXPECT_NE(s.find('['), std::string::npos) << s;
  }
}

TEST(Guardrails, ReportDescribesWinningAttempt) {
  const auto mmpp = PaperClusterMmpp(5, 2);
  const auto res = solve_r(m_mmpp_1(mmpp, 0.7 * mmpp.mean_rate()));
  EXPECT_TRUE(res.report.converged);
  ASSERT_EQ(res.report.attempts.size(), 1u);
  EXPECT_EQ(res.report.attempts[0].algorithm,
            SolveAlgorithm::kLogarithmicReduction);
  EXPECT_GT(res.report.iterations, 0u);
  EXPECT_GT(res.report.condition, 0.0);
  const std::string text = res.report.to_string();
  EXPECT_NE(text.find("converged"), std::string::npos);
  EXPECT_NE(text.find("logarithmic-reduction"), std::string::npos);
}

TEST(Guardrails, SolutionCarriesReport) {
  const core::ClusterModel model{core::ClusterParams{}};
  const auto sol = model.solve(model.lambda_for_rho(0.5));
  EXPECT_TRUE(sol.report().converged);
  EXPECT_LT(sol.report().final_defect, 1e-8);
}

TEST(Guardrails, SummaryCarriesPerAttemptTimingTrail) {
  // summary() is the one-line form used in sweep logs: it must name the
  // converged algorithm with its iteration count AND carry each attempt's
  // wall-clock time, so a slow solve is visible without the multi-line
  // report.
  const core::ClusterModel model{core::ClusterParams{}};
  const auto sol = model.solve(model.lambda_for_rho(0.5));
  const SolveReport& report = sol.report();
  ASSERT_FALSE(report.attempts.empty());
  for (const SolveAttempt& a : report.attempts) {
    EXPECT_GE(a.seconds, 0.0) << to_string(a.algorithm);
  }

  const std::string s = report.summary();
  EXPECT_EQ(s.find('\n'), std::string::npos) << s;  // stays one line
  // The winning attempt renders as "*<algorithm>:<iterations>it/<t>s".
  char winner[96];
  std::snprintf(winner, sizeof winner, "*%s:%uit/",
                to_string(report.attempts.back().algorithm),
                report.iterations);
  EXPECT_NE(s.find(winner), std::string::npos) << s;
  // The trail is bracketed and every element carries a seconds suffix.
  const std::size_t open = s.find('[');
  ASSERT_NE(open, std::string::npos) << s;
  EXPECT_EQ(s.back(), ']') << s;
  std::size_t elements = 0;
  for (std::size_t pos = s.find("s", open); pos != std::string::npos;
       pos = s.find('s', pos + 1)) {
    if (s[pos + 1] == ' ' || s[pos + 1] == ']') ++elements;
  }
  EXPECT_EQ(elements, report.attempts.size()) << s;
}

TEST(Guardrails, GSolveReportsAchievedDefect) {
  // The natural failure of StagnatedLogredFailsWithOneAttempt: the G
  // defect of N=2 TPT T=10 repairs at rho = 0.99999 stalls above the
  // tolerance.
  const auto mmpp = PaperClusterMmpp(10, 2);
  const auto blocks = m_mmpp_1(mmpp, 0.99999 * mmpp.mean_rate());
  try {
    solve_g_logred(blocks);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    // The achieved defect must appear in the message.
    EXPECT_NE(std::string(e.what()).find("defect"), std::string::npos);
  }
}

TEST(NonFiniteSentinels, PoisonedBlocksRejected) {
  auto blocks = m_mmpp_1(PaperClusterMmpp(2, 2), 1.0);
  blocks.a1(0, 0) = std::nan("");
  EXPECT_THROW(blocks.validate(), NonFiniteError);
}

TEST(NonFiniteSentinels, LuRejectsNonFiniteInput) {
  linalg::Matrix a = testing::RandomDominantMatrix(4, 17);
  a(2, 1) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(linalg::Lu{a}, NonFiniteError);
}

TEST(NonFiniteSentinels, ExpmRejectsNonFiniteInput) {
  linalg::Matrix a = testing::RandomMatrix(3, 5);
  a(0, 0) = std::nan("");
  EXPECT_THROW(linalg::expm(a), NonFiniteError);
}

TEST(ConditionEstimate, SaneOnIdentityAndIllConditioned) {
  const linalg::Matrix eye = linalg::Matrix::identity(4);
  const double k_eye = linalg::Lu(eye).condition_estimate();
  EXPECT_GT(k_eye, 0.5);
  EXPECT_LT(k_eye, 2.0);

  // Nearly singular 2x2: condition must come out large.
  const linalg::Matrix bad{{1.0, 1.0}, {1.0, 1.0 + 1e-10}};
  EXPECT_GT(linalg::Lu(bad).condition_estimate(), 1e6);
}

}  // namespace
}  // namespace performa::qbd

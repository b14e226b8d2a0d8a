// A posteriori trust verdicts: grading mechanics, the scaled residual,
// certification of healthy solves, detection of injected 1-ulp corruption
// and its recovery by refinement, the self-healing escalation ladder, and
// the TrustRejected terminal path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cluster_model.h"
#include "medist/tpt.h"
#include "qbd/qbd.h"
#include "qbd/solution.h"
#include "qbd/trust.h"

namespace performa::qbd {
namespace {

using core::ClusterModel;
using core::ClusterParams;

// The paper's 2-node TPT-repair cluster at rho = 0.9: heavy-tailed enough
// that the trust checks exercise a genuinely ill-conditioned regime while
// the solve stays fast (phase dim 66).
ClusterParams LoadedTptCluster() {
  ClusterParams p;
  p.down = medist::make_tpt(medist::TptSpec{10, 1.4, 0.5, 10.0});
  return p;
}

// A deeper TPT truncation with a heavier tail: E[Q] ~ 4300 at rho = 0.9,
// so the (I-R)^{-1} amplification makes per-ulp rot of R visible in the
// mass check (defect ~ eps * E[Q] ~ 5e-13, an order of magnitude above
// the certified threshold) while sp(R) stays safely below 1 after the
// corruption.
ClusterParams SaturatedTptCluster() {
  ClusterParams p;
  p.down = medist::make_tpt(medist::TptSpec{20, 1.2, 0.5, 10.0});
  return p;
}

TEST(TrustCheckTest, GradesAgainstBothThresholds) {
  TrustCheck c{"x", 1e-12, 1e-9, 1e-4, ""};
  EXPECT_EQ(c.verdict(), TrustVerdict::kCertified);
  c.measured = 1e-6;
  EXPECT_EQ(c.verdict(), TrustVerdict::kSuspect);
  c.measured = 1e-3;
  EXPECT_EQ(c.verdict(), TrustVerdict::kRejected);
  c.measured = std::nan("");
  EXPECT_EQ(c.verdict(), TrustVerdict::kRejected);
}

TEST(TrustReportTest, VerdictIsWorstCheck) {
  TrustReport r;
  r.checks.push_back({"a", 1e-12, 1e-9, 1e-4, ""});
  r.checks.push_back({"b", 1e-6, 1e-9, 1e-4, ""});
  r.grade();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.verdict, TrustVerdict::kSuspect);
  ASSERT_NE(r.worst(), nullptr);
  EXPECT_EQ(r.worst()->name, "b");
  EXPECT_GT(r.severity(), 1.0);
}

TEST(TrustSolveTest, HealthySolveIsCertifiedWithFullEvidence) {
  const ClusterModel model(LoadedTptCluster());
  const auto sol = model.solve(model.lambda_for_rho(0.9));
  const TrustReport& trust = sol.trust();
  ASSERT_TRUE(trust.verified);
  EXPECT_EQ(trust.verdict, TrustVerdict::kCertified);
  // All six independent checks must have run on the solving path.
  EXPECT_EQ(trust.checks.size(), 6u);
  for (const TrustCheck& c : trust.checks) {
    EXPECT_EQ(c.verdict(), TrustVerdict::kCertified) << c.name;
  }
  EXPECT_NE(trust.summary().find("certified"), std::string::npos);
}

TEST(TrustSolveTest, ResidualIsScaledAndRawIsPreserved) {
  const ClusterModel model(LoadedTptCluster());
  const double lambda = model.lambda_for_rho(0.9);
  const auto blocks = m_mmpp_1(model.aggregate().mmpp(), lambda);
  const auto sol = model.solve(lambda);

  const double scale = residual_scale(blocks);
  EXPECT_GT(scale, 1.0);  // block norms of this model are far above 1
  EXPECT_NEAR(sol.report().final_defect_raw,
              sol.report().final_defect * scale,
              1e-12 * sol.report().final_defect_raw + 1e-300);
  // The independently recomputed scaled residual agrees with the
  // solver-reported one.
  EXPECT_NEAR(r_residual_norm(blocks, sol.r()), sol.r_residual(),
              1e-2 * sol.r_residual() + 1e-18);
}

TEST(TrustSolveTest, UlpCorruptionDetectedAsSuspectAndHealedByRefinement) {
  const ClusterModel model(SaturatedTptCluster());
  const double lambda = model.lambda_for_rho(0.9);
  const auto blocks = m_mmpp_1(model.aggregate().mmpp(), lambda);

  // Start from the certified answer and corrupt it ourselves.
  const auto sol = model.solve(lambda);
  ASSERT_EQ(sol.trust().verdict, TrustVerdict::kCertified)
      << sol.trust().to_string();

  // Rot every entry of R by one ulp upward -- the smallest representable
  // corruption a bad journal or bit flip could inject.
  linalg::Matrix r = sol.r();
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      r(i, j) = std::nextafter(r(i, j), 2.0);
    }
  }
  QbdSolution corrupted(std::move(r), sol.pi0(), sol.pi1(), sol.report());

  // The reduced rehydration checks alone must already flag it...
  EXPECT_EQ(corrupted.trust().verdict, TrustVerdict::kSuspect)
      << corrupted.trust().to_string();

  // ...and the full a posteriori verification pins it on the mass check.
  const TrustReport& before = corrupted.verify(blocks);
  EXPECT_EQ(before.verdict, TrustVerdict::kSuspect) << before.to_string();
  ASSERT_NE(before.worst(), nullptr);
  EXPECT_EQ(before.worst()->name, "mass-conservation");

  // One refinement pass recovers a certified answer.
  corrupted.refine(blocks);
  const TrustReport& after = corrupted.verify(blocks);
  EXPECT_EQ(after.verdict, TrustVerdict::kCertified) << after.to_string();
  EXPECT_NEAR(corrupted.mean_queue_length(), sol.mean_queue_length(),
              1e-6 * sol.mean_queue_length());
}

TEST(TrustSolveTest, EscalationLadderRunsAndReleasesBestSuspect) {
  // Impossible certified thresholds (below any double-precision floor)
  // with unreachable rejection thresholds: every rung runs, nothing can
  // certify, and the best state is released as suspect with the healing
  // trail attached.
  const ClusterModel model(LoadedTptCluster());
  TrustPolicy policy;
  policy.r_residual_certified = 1e-30;
  const auto sol = model.solve(model.lambda_for_rho(0.9), policy);
  const TrustReport& trust = sol.trust();
  EXPECT_EQ(trust.verdict, TrustVerdict::kSuspect);
  EXPECT_GE(trust.refinements + trust.resolves, 2u) << trust.to_string();
  EXPECT_NE(trust.healing.find("refine"), std::string::npos) << trust.healing;
  EXPECT_NE(trust.healing.find("suspect"), std::string::npos) << trust.healing;
}

TEST(TrustSolveTest, DraconianPolicyThrowsTrustRejectedWithEvidence) {
  const ClusterModel model(LoadedTptCluster());
  TrustPolicy policy;
  policy.r_residual_certified = 1e-32;
  policy.r_residual_rejected = 1e-30;  // below any achievable residual
  try {
    model.solve(model.lambda_for_rho(0.9), policy);
    FAIL() << "rejected answer was released";
  } catch (const TrustRejected& e) {
    EXPECT_EQ(e.trust().verdict, TrustVerdict::kRejected);
    EXPECT_FALSE(e.trust().checks.empty());
    // The ladder must have tried to heal before giving up.
    EXPECT_GE(e.trust().refinements + e.trust().resolves, 1u);
    EXPECT_NE(std::string(e.what()).find("r-residual"), std::string::npos);
  }
}

TEST(TrustSolveTest, RehydratedSolutionCarriesReducedReport) {
  const ClusterModel model(LoadedTptCluster());
  const auto sol = model.solve(model.lambda_for_rho(0.7));
  const QbdSolution back(sol.r(), sol.pi0(), sol.pi1(), sol.report());
  const TrustReport& trust = back.trust();
  ASSERT_TRUE(trust.verified);
  EXPECT_EQ(trust.verdict, TrustVerdict::kCertified);
  // Reduced check set: the generator blocks are unavailable, so only the
  // blocks-free checks can run.
  EXPECT_LT(trust.checks.size(), 6u);
  EXPECT_FALSE(trust.checks.empty());
  EXPECT_NE(trust.healing.find("rehydrated"), std::string::npos);
}

}  // namespace
}  // namespace performa::qbd

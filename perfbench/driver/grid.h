// The fixed model grids the workloads draw from, the reference answers
// committed for them, and the per-answer solve paths (plain, and split
// layer by layer for the traced run).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/cluster_model.h"

namespace perfbench {

enum class Kind { kHomogeneous, kLdCluster, kLdFacility };

/// One model of a grid. `rho` is the utilization of the independent-
/// repair cluster's capacity (for facility models, the load the paper's
/// model was sized for, as in ext9).
struct ModelCase {
  std::string id;
  Kind kind = Kind::kHomogeneous;
  unsigned n = 2;
  std::string repair = "tpt";  ///< exp | tpt | hyp2 (HYP-2 fitted to TPT)
  unsigned tpt_t = 1;
  double tpt_alpha = 1.4;
  double tpt_theta = 0.2;
  double mttr = 10.0;
  double mttf = 90.0;
  double nu_p = 2.0;
  double delta = 0.2;
  unsigned crews = 0;
  unsigned spares = 0;
  double rho = 0.5;
  std::size_t tail_k = 50;
};

/// A certified answer: the values checked against the references.
struct Answer {
  double mean = 0.0;    ///< E[Q]
  double tail = 0.0;    ///< Pr(Q >= tail_k)
  double decay = 0.0;   ///< sp(R)
  std::size_t phase_dim = 0;
  std::size_t ld_unknowns = 0;  ///< (C+1)*m for level-dependent models
  bool certified = false;
};

/// Grid of a workload: "cold_paper", "cold_level_dependent",
/// "daemon_hot" or "daemon_unique". Throws on an unknown name.
std::vector<ModelCase> grid(const std::string& name);

performa::core::ClusterParams cluster_params(const ModelCase& c);

/// Arrival rate of a case (rho times the independent model's capacity).
double case_lambda(const ModelCase& c);

/// Solve one case through the library's public entry points; the only
/// spans are one per layer call (map build, solve, metric evaluation).
Answer solve_case(const ModelCase& c);

/// Layer-split solve for the traced run: every public layer function is
/// called on its own inside a span (homogeneous: map build, blocks,
/// solve_r, QbdSolution, verify, metrics; level-dependent: map build,
/// blocks, LevelDependentSolution, metrics). Fills R-solve diagnostics.
struct SplitStats {
  unsigned r_iterations = 0;
  unsigned r_attempts = 0;
  double gemm_flops_in_solve_r = 0.0;
  /// R-iteration time inside the solution constructors (their own
  /// SolveReport attempt trail), subtracted to get boundary + certify.
  double ctor_r_ms = 0.0;
};
Answer solve_case_split(const ModelCase& c, SplitStats& stats);

/// Operations of the daemon workload's hot mix, drawn uniformly.
inline constexpr const char* kHotOps[] = {"mean", "tail", "solve"};

/// The request line performad receives for a daemon-grid case.
std::string daemon_request(const ModelCase& c, const std::string& op,
                           const std::string& id);

// ---------------------------------------------------------------------------
// Reference answers: CSV id,mean_q,tail_k,tail,decay_rate.

struct Reference {
  double mean = 0.0;
  std::size_t tail_k = 0;
  double tail = 0.0;
  double decay = 0.0;
};

/// Relative tolerance of every reference comparison.
constexpr double kRefRelTol = 1e-8;

std::map<std::string, Reference> load_references(const std::string& path);
void write_references(const std::vector<ModelCase>& cases);

/// Empty string when `a` matches `ref` and is certified; otherwise a
/// one-line description of the mismatch.
std::string check_answer(const ModelCase& c, const Answer& a,
                         const std::map<std::string, Reference>& refs);

}  // namespace perfbench

// Per-layer measurements for the traced run. Each function calls one
// layer's public entry points on fixed inputs and returns named metrics;
// the traced run of a workload fills the layers it exercises from its
// own inputs and takes the rest from layer_probe().
#pragma once

#include <map>
#include <string>
#include <vector>

#include "grid.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// Largest problem sizes seen by a split pass.
struct PassSizes {
  std::size_t phase_dim = 0;
  std::size_t ld_unknowns = 0;
};

/// One layer-split pass over `cases` (map / qbd metrics, per answer).
/// Returns the metrics and appends answer-check failures to `failures`.
Metrics split_pass(const std::vector<ModelCase>& cases,
                   const std::map<std::string, Reference>* refs,
                   std::vector<std::string>& failures,
                   PassSizes* sizes = nullptr);

/// gemm throughput and LU time at the given dimensions, plus the pool
/// speedup of solving `cases` at widths 2 and 4 against width 1.
Metrics linalg_metrics(std::size_t gemm_dim, std::size_t lu_dim,
                       const std::vector<ModelCase>& speedup_cases);

/// Every in-process layer metric on a fixed small input set. Keys already
/// present in `have` are skipped.
void layer_probe(Metrics& have, const std::string& workdir,
                 const std::map<std::string, Reference>& refs,
                 std::vector<std::string>& failures);

/// Fixed subsets of the cold grids the probe uses.
std::vector<ModelCase> probe_homogeneous_cases();
std::vector<ModelCase> probe_level_dependent_cases();

}  // namespace perfbench

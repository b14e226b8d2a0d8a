#include "qbd/solve_report.h"

#include <cmath>
#include <cstdio>

namespace performa::qbd {

namespace {

// ", sp(R)=<value>" with `precision` digits, or nothing while sp(R) is
// unset (see SolveReport::spectral_radius).
std::string sp_field(double sp, int precision) {
  if (std::isnan(sp)) return {};
  char buf[48];
  std::snprintf(buf, sizeof buf, "sp(R)=%.*f", precision, sp);
  return buf;
}

// The algorithm of a converged solve: its last attempt's. A rehydrated
// report (daemon journal) records no attempt; its R came from logarithmic
// reduction, the one production algorithm.
SolveAlgorithm converged_algorithm(const SolveReport& r) {
  return r.attempts.empty() ? SolveAlgorithm::kLogarithmicReduction
                            : r.attempts.back().algorithm;
}

// "<status> over <n> attempt(s)[, last defect=<d>]" for a solve that did
// not converge. Such a solve has no winner, and its final defect and
// condition estimate were never computed, so neither rendering prints
// those fields; the last attempt's defect is what it did reach.
std::string failed_head(const SolveReport& r, const char* status) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s over %zu attempt(s)", status,
                r.attempts.size());
  std::string out = buf;
  if (!r.attempts.empty()) {
    std::snprintf(buf, sizeof buf, ", last defect=%.3e",
                  r.attempts.back().defect);
    out += buf;
  }
  return out;
}

}  // namespace

const char* to_string(SolveAlgorithm a) noexcept {
  switch (a) {
    case SolveAlgorithm::kSuccessiveSubstitution:
      return "successive-substitution";
    case SolveAlgorithm::kLogarithmicReduction:
      return "logarithmic-reduction";
  }
  return "?";
}

std::string SolveReport::to_string() const {
  char line[192];
  std::string out;
  if (converged) {
    std::snprintf(line, sizeof line,
                  "SolveReport: converged, winner=%s, iterations=%u\n"
                  "  defect=%.3e (raw %.3e)  ",
                  qbd::to_string(converged_algorithm(*this)), iterations,
                  final_defect, final_defect_raw);
  } else {
    std::snprintf(line, sizeof line, "SolveReport: %s\n  ",
                  failed_head(*this, deadline_exceeded ? "DEADLINE EXCEEDED"
                                                       : "FAILED")
                      .c_str());
  }
  out += line;
  if (const std::string sp = sp_field(spectral_radius, 6); !sp.empty()) {
    out += sp;
    out += "  ";
  }
  if (converged) {
    std::snprintf(line, sizeof line, "cond~%.3e  ", condition);
    out += line;
  }
  std::snprintf(line, sizeof line, "rho=%.6f\n", utilization);
  out += line;
  if (!query_id.empty()) {
    out += "  qid=";
    out += query_id;
    out += '\n';
  }
  for (const SolveAttempt& a : attempts) {
    std::snprintf(line, sizeof line,
                  "  attempt %-24s it=%-6u defect=%.3e t=%.3fs %s%s",
                  qbd::to_string(a.algorithm), a.iterations, a.defect,
                  a.seconds, a.converged ? "ok" : "failed",
                  a.note.empty() ? "" : ": ");
    out += line;
    out += a.note;
    out += '\n';
  }
  return out;
}

std::string SolveReport::summary() const {
  // One line carrying the per-attempt trail: each attempt renders as
  // algorithm:iterations/wall-time, with a converged attempt marked by
  // '*' so its iteration count and cost are identifiable without the
  // multi-line report.
  char line[224];
  if (converged) {
    std::snprintf(line, sizeof line,
                  "converged: %s after %u its over %zu attempt(s), "
                  "defect=%.3e, ",
                  qbd::to_string(converged_algorithm(*this)), iterations,
                  attempts.size(), final_defect);
  } else {
    std::snprintf(line, sizeof line, "%s, ",
                  failed_head(*this, deadline_exceeded ? "deadline exceeded"
                                                       : "solver failed")
                      .c_str());
  }
  std::string out = line;
  if (const std::string sp = sp_field(spectral_radius, 4); !sp.empty()) {
    out += sp;
    out += ", ";
  }
  std::snprintf(line, sizeof line, "rho=%.4f", utilization);
  out += line;
  out += " [";
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const SolveAttempt& a = attempts[i];
    std::snprintf(line, sizeof line, "%s%s%s:%uit/%.3fs", i > 0 ? " " : "",
                  a.converged ? "*" : "", qbd::to_string(a.algorithm),
                  a.iterations, a.seconds);
    out += line;
  }
  out += ']';
  return out;
}

}  // namespace performa::qbd

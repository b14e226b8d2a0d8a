#include "daemon/query.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include <optional>

#include "core/blowup.h"
#include "core/cluster_model.h"
#include "core/qos.h"
#include "linalg/errors.h"
#include "medist/tpt.h"
#include "obs/deadline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qbd/solve_report.h"

namespace performa::daemon {

namespace {

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Histogram& solve_latency() {
  static obs::Histogram& h = obs::histogram("daemon.solve.seconds");
  return h;
}

/// Uniform error response; carries the thread's active query id.
std::string error_response(const std::string& id, const std::string& op,
                           const std::string& outcome,
                           const std::string& message) {
  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  if (!op.empty()) w.field("op", op);
  if (!obs::current_query_id().empty()) {
    w.field("qid", obs::current_query_id());
  }
  w.field("ok", false);
  w.field("outcome", outcome);
  w.field("error", message);
  return std::move(w).str();
}

bool require_number(const JsonObject& request, const std::string& key,
                    double& out, std::string& error) {
  const JsonValue* v = request.find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
    error = "missing or non-numeric field '" + key + "'";
    return false;
  }
  out = v->number;
  return true;
}

bool get_unsigned(const JsonObject& request, const std::string& key,
                  unsigned& out, std::string& error) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) return true;  // keep default
  if (v->kind != JsonValue::Kind::kNumber || v->number < 0.0 ||
      v->number != std::floor(v->number) || v->number > 1e9) {
    error = "field '" + key + "' must be a non-negative integer";
    return false;
  }
  out = static_cast<unsigned>(v->number);
  return true;
}

bool get_double(const JsonObject& request, const std::string& key, double& out,
                std::string& error) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) return true;
  if (v->kind != JsonValue::Kind::kNumber) {
    error = "field '" + key + "' must be a number";
    return false;
  }
  out = v->number;
  return true;
}

core::ClusterParams cluster_params(const ModelSpec& spec) {
  core::ClusterParams params;
  params.n_servers = spec.n_servers;
  params.nu_p = spec.nu_p;
  params.delta = spec.delta;
  params.up = medist::exponential_from_mean(spec.mttf);
  if (spec.repair == "exp") {
    params.down = medist::exponential_from_mean(spec.mttr);
  } else if (spec.repair == "erlang") {
    params.down = medist::erlang_dist(spec.erlang_k, spec.mttr);
  } else {
    medist::TptSpec tpt;
    tpt.phases = spec.tpt_phases;
    tpt.alpha = spec.tpt_alpha;
    tpt.theta = spec.tpt_theta;
    tpt.mean = spec.mttr;
    params.down = medist::make_tpt(tpt);
  }
  return params;
}

core::BlowupParams blowup_params(const ModelSpec& spec) {
  core::BlowupParams p;
  p.n_servers = spec.n_servers;
  p.nu_p = spec.nu_p;
  p.delta = spec.delta;
  p.availability = spec.availability();
  return p;
}

}  // namespace

double ModelSpec::mean_service_rate() const noexcept {
  const double a = availability();
  return n_servers * nu_p * (a + delta * (1.0 - a));
}

bool parse_model(const JsonObject& request, ModelSpec& spec,
                 std::string& error) {
  ModelSpec s;
  if (!get_unsigned(request, "n", s.n_servers, error)) return false;
  if (!get_double(request, "nu_p", s.nu_p, error)) return false;
  if (!get_double(request, "delta", s.delta, error)) return false;
  if (!get_double(request, "mttf", s.mttf, error)) return false;
  if (!get_double(request, "mttr", s.mttr, error)) return false;
  if (!get_unsigned(request, "tpt_phases", s.tpt_phases, error)) return false;
  if (!get_double(request, "tpt_alpha", s.tpt_alpha, error)) return false;
  if (!get_double(request, "tpt_theta", s.tpt_theta, error)) return false;
  if (!get_unsigned(request, "erlang_k", s.erlang_k, error)) return false;
  if (!get_double(request, "rho", s.rho, error)) return false;
  if (const JsonValue* v = request.find("repair")) {
    if (v->kind != JsonValue::Kind::kString) {
      error = "field 'repair' must be a string";
      return false;
    }
    s.repair = v->string;
  }

  if (s.n_servers < 1 || s.n_servers > 64) {
    error = "n must be in 1..64";
    return false;
  }
  if (!(s.nu_p > 0.0) || !std::isfinite(s.nu_p)) {
    error = "nu_p must be positive";
    return false;
  }
  if (!(s.delta >= 0.0 && s.delta <= 1.0)) {
    error = "delta must be in [0,1]";
    return false;
  }
  if (!(s.mttf > 0.0) || !std::isfinite(s.mttf)) {
    error = "mttf must be positive";
    return false;
  }
  if (!(s.mttr > 0.0) || !std::isfinite(s.mttr)) {
    error = "mttr must be positive";
    return false;
  }
  if (s.repair != "exp" && s.repair != "erlang" && s.repair != "tpt") {
    error = "repair must be one of exp|erlang|tpt, got '" + s.repair + "'";
    return false;
  }
  if (s.repair == "tpt") {
    if (s.tpt_phases < 1 || s.tpt_phases > 64) {
      error = "tpt_phases must be in 1..64";
      return false;
    }
    if (!(s.tpt_alpha > 1.0) || !std::isfinite(s.tpt_alpha)) {
      error = "tpt_alpha must be > 1";
      return false;
    }
    if (!(s.tpt_theta > 0.0 && s.tpt_theta < 1.0)) {
      error = "tpt_theta must be in (0,1)";
      return false;
    }
  }
  if (s.repair == "erlang" && (s.erlang_k < 1 || s.erlang_k > 64)) {
    error = "erlang_k must be in 1..64";
    return false;
  }
  if (!(s.rho > 0.0 && s.rho < 1.0)) {
    error = "rho must be in (0,1)";
    return false;
  }
  spec = s;
  return true;
}

std::string canonical_model_key(const ModelSpec& spec) {
  std::string key = "n=" + std::to_string(spec.n_servers);
  key += ";nu_p=" + hex_double(spec.nu_p);
  key += ";delta=" + hex_double(spec.delta);
  key += ";mttf=" + hex_double(spec.mttf);
  key += ";repair=" + spec.repair;
  key += ";mttr=" + hex_double(spec.mttr);
  if (spec.repair == "tpt") {
    key += ";T=" + std::to_string(spec.tpt_phases);
    key += ";alpha=" + hex_double(spec.tpt_alpha);
    key += ";theta=" + hex_double(spec.tpt_theta);
  } else if (spec.repair == "erlang") {
    key += ";k=" + std::to_string(spec.erlang_k);
  }
  key += ";rho=" + hex_double(spec.rho);
  return key;
}

QueryEngine::QueryEngine(EngineConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_budget_bytes),
      slow_query_seconds_(config_.slow_query_seconds) {
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<CacheJournal>(config_.journal_path,
                                              config_.sync_journal);
  }
}

JournalLoad QueryEngine::rehydrate() {
  PERFORMA_SPAN("daemon.rehydrate");
  JournalLoad load;
  if (config_.journal_path.empty()) return load;
  load = load_journal(config_.journal_path);
  // Insert oldest-first so journal order becomes LRU order (the last
  // journal entry ends up most recently used). Entries are copied --
  // the shared_ptr is cheap -- so the returned load stays inspectable.
  for (const auto& [key, entry] : load.entries) {
    cache_.put(key, entry);
  }
  static obs::Counter& recovered = obs::counter("daemon.journal.recovered");
  static obs::Counter& dropped = obs::counter("daemon.journal.dropped");
  recovered.add(load.entries.size());
  dropped.add(load.dropped_records);
  return load;
}

std::string QueryEngine::handle_line(const std::string& line) {
  JsonObject request;
  std::string parse_error;
  if (!parse_json_object(line, request, parse_error)) {
    return error_response("", "", "parse-error", parse_error);
  }
  return handle(request);
}

std::string QueryEngine::handle(const JsonObject& request) {
  const std::string id = request.string("id", "");
  const std::string op = request.string("op", "");

  // The daemon mints a query id at admission and installs the scope in
  // its worker; a bare engine (tests, future embedders) mints its own
  // here so every reply still carries one.
  std::optional<obs::QueryIdScope> local_scope;
  if (obs::current_query_id().empty()) {
    local_scope.emplace(obs::mint_query_id());
  }
  const std::string qid = obs::current_query_id();

  if (op == "ping") {
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", op);
    w.field("qid", qid);
    w.field("ok", true);
    w.field("outcome", "ok");
    return std::move(w).str();
  }

  if (op == "stats") {
    const CacheStats cs = cache_.stats();
    const EngineStats es = stats();
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", op);
    w.field("qid", qid);
    w.field("ok", true);
    w.field("outcome", "ok");
    w.field("cache_entries", static_cast<std::uint64_t>(cs.entries));
    w.field("cache_bytes", static_cast<std::uint64_t>(cs.bytes));
    w.field("cache_budget_bytes",
            static_cast<std::uint64_t>(cs.budget_bytes));
    w.field("cache_hits", cs.hits);
    w.field("cache_misses", cs.misses);
    w.field("cache_evictions", cs.evictions);
    w.field("stale_serves", cs.stale_serves);
    w.field("solves", es.solves);
    w.field("solve_failures", es.solve_failures);
    w.field("deadline_exceeded", es.deadline_exceeded);
    w.field("rejected", es.rejected);
    return std::move(w).str();
  }

  if (op == "debug-sleep") {
    if (!config_.debug_ops) {
      return error_response(id, op, "unknown-op",
                            "debug ops are disabled (start with --debug-ops)");
    }
    double seconds = 0.0;
    std::string field_error;
    if (!require_number(request, "seconds", seconds, field_error) ||
        seconds < 0.0 || seconds > 600.0) {
      return error_response(id, op, "invalid-argument",
                            field_error.empty() ? "seconds out of range"
                                                : field_error);
    }
    const bool ignore_cancel = request.boolean("ignore_cancel", false);
    const double until = now_seconds() + seconds;
    while (now_seconds() < until) {
      if (!ignore_cancel && obs::deadline_expired()) {
        return error_response(id, op, "deadline-exceeded",
                              "debug-sleep cancelled");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", op);
    w.field("qid", qid);
    w.field("ok", true);
    w.field("outcome", "ok");
    w.field("slept_s", seconds);
    return std::move(w).str();
  }

  const bool is_model_op = op == "solve" || op == "mean" || op == "tail" ||
                           op == "pmf" || op == "qos" ||
                           op == "availability" || op == "blowup";
  if (!is_model_op) {
    return error_response(id, op, "unknown-op",
                          "unknown op '" + op +
                              "' (expected ping|stats|solve|mean|tail|pmf|"
                              "qos|availability|blowup)");
  }

  ModelSpec spec;
  std::string model_error;
  if (!parse_model(request, spec, model_error)) {
    return error_response(id, op, "invalid-argument", model_error);
  }

  // Parameter-only ops: answered from the spec, no solve, no cache.
  if (op == "availability" || op == "blowup") {
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", op);
    w.field("qid", qid);
    w.field("ok", true);
    w.field("outcome", "ok");
    w.field("availability", spec.availability());
    w.field("nu_bar", spec.mean_service_rate());
    if (op == "blowup") {
      try {
        const core::BlowupParams bp = blowup_params(spec);
        w.field("region",
                static_cast<std::uint64_t>(core::blowup_region(bp, spec.rho)));
        w.field_array("blowup_utilizations",
                      core::blowup_utilizations(bp));
        const double lambda = spec.rho * spec.mean_service_rate();
        w.field("has_blowup", core::has_blowup(bp, lambda));
        if (spec.repair == "tpt") {
          const unsigned region = core::blowup_region(bp, spec.rho);
          if (region >= 1) {
            w.field("tail_exponent",
                    core::tail_exponent(region, spec.tpt_alpha));
          }
        }
      } catch (const InvalidArgument& e) {
        return error_response(id, op, "invalid-argument", e.what());
      }
    }
    return std::move(w).str();
  }

  // Solution ops: serve from cache, solving (and journaling) on miss.
  const std::string key = canonical_model_key(spec);
  const bool refresh = request.boolean("refresh", false);

  CachedSolution entry;
  bool cached = cache_.get(key, entry, /*count_stats=*/!refresh);
  bool stale = false;
  std::string degrade_outcome;
  std::string degrade_message;
  double solve_seconds = -1.0;
  std::optional<qbd::SolveReport> failure_report;

  // Threshold-based slow-query log: a fresh solve that took at least
  // slow_query_seconds (or blew its deadline) leaves one structured
  // record carrying the solver summary, trust verdict, healing trail and
  // cache disposition, joined to the wire reply by the qid.
  const auto maybe_log_slow = [&](const char* disposition) {
    const double threshold =
        slow_query_seconds_.load(std::memory_order_relaxed);
    if (threshold <= 0.0) return;
    const bool deadline_blown = degrade_outcome == "deadline-exceeded";
    if (!deadline_blown && !(solve_seconds >= threshold)) return;
    const qbd::SolveReport* rep =
        failure_report              ? &*failure_report
        : (cached && entry.solution) ? &entry.solution->report()
                                     : nullptr;
    std::string trust_text = "unknown";
    std::string trail;  // empty unless the healing ladder ran
    if (cached && entry.solution) {
      const qbd::TrustReport& tr = entry.solution->trust();
      trust_text =
          tr.verified ? std::string(qbd::to_string(tr.verdict)) : "unverified";
      trail = tr.healing;
    }
    PERFORMA_LOG(kWarn, "daemon.slow_query")
        .kv("op", op)
        .kv("key", key)
        .kv("solve_s", solve_seconds < 0.0 ? 0.0 : solve_seconds)
        .kv("threshold_s", threshold)
        .kv("outcome",
            degrade_outcome.empty() ? std::string("ok") : degrade_outcome)
        .kv("disposition", disposition)
        .kv("trust", trust_text)
        .kv("solver", rep ? rep->summary() : std::string("no-report"))
        .kv("trail", trail);
  };

  if (!cached || refresh) {
    try {
      const double t0 = now_seconds();
      entry = solve_and_store(spec, key);
      solve_seconds = now_seconds() - t0;
      cached = true;
    } catch (const qbd::DeadlineExceeded& e) {
      degrade_outcome = "deadline-exceeded";
      degrade_message = e.what();
      failure_report = e.report();
    } catch (const DeadlineError& e) {
      degrade_outcome = "deadline-exceeded";
      degrade_message = e.what();
    } catch (const InvalidArgument& e) {
      return error_response(id, op, "invalid-argument", e.what());
    } catch (const qbd::TrustRejected& e) {
      // The answer exists but failed verification: it was never cached
      // or journaled (solve_and_store throws before either), and the
      // wire carries the explicit outcome. The compact trust summary
      // travels instead of the multi-line evidence.
      degrade_outcome = "rejected-answer";
      degrade_message = e.trust().summary();
    } catch (const qbd::SolverFailure& e) {
      degrade_outcome = "solver-failure";
      degrade_message = e.what();
      failure_report = e.report();
    } catch (const NumericalError& e) {
      degrade_outcome = "solver-failure";
      degrade_message = e.what();
    }
    if (!degrade_outcome.empty()) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        if (degrade_outcome == "deadline-exceeded") {
          ++stats_.deadline_exceeded;
        } else if (degrade_outcome == "rejected-answer") {
          ++stats_.rejected;
        } else {
          ++stats_.solve_failures;
        }
      }
      // Graceful degradation: fall back to the last known-good answer.
      CachedSolution fallback;
      if (cache_.get(key, fallback, /*count_stats=*/false)) {
        entry = std::move(fallback);
        cached = true;
        stale = true;
        cache_.note_stale_serve();
        maybe_log_slow("stale-fallback");
      } else {
        maybe_log_slow("error");
        return error_response(id, op, degrade_outcome, degrade_message);
      }
    } else if (solve_seconds >= 0.0) {
      maybe_log_slow("solved");
    }
  }

  // Evaluate the query against the (possibly stale) solution. Metric
  // sweeps poll the deadline too; past this point a deadline hit on a
  // *served* solution is a plain error (there is nothing staler left).
  try {
    const qbd::QbdSolution& sol = *entry.solution;
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", op);
    w.field("qid", qid);
    w.field("ok", true);
    w.field("outcome", stale ? degrade_outcome : std::string("ok"));
    w.field("stale", stale);
    if (stale) w.field("error", degrade_message);
    w.field("cached", solve_seconds < 0.0);
    if (solve_seconds >= 0.0) w.field("solve_ms", solve_seconds * 1e3);
    w.field("rho", spec.rho);
    w.field("nu_bar", entry.nu_bar);
    w.field("availability", entry.availability);
    w.field("lambda", entry.lambda);
    w.field("phase_dim", static_cast<std::uint64_t>(sol.phase_dim()));
    // Every served answer carries its trust verdict; anything short of
    // certified also carries the worst-check evidence so a caller can
    // decide whether the answer is good enough for its purpose.
    const qbd::TrustReport& trust = sol.trust();
    w.field("trust", trust.verified ? qbd::to_string(trust.verdict)
                                    : "unverified");
    if (!trust.verified || trust.verdict != qbd::TrustVerdict::kCertified) {
      w.field("trust_detail", trust.summary());
    }

    if (op == "solve") {
      w.field("mean_queue_length", sol.mean_queue_length());
      w.field("decay_rate", sol.decay_rate());
    } else if (op == "mean") {
      const double mql = sol.mean_queue_length();
      w.field("value", mql);
      w.field("normalized", mql / (spec.rho / (1.0 - spec.rho)));
      w.field("variance", sol.variance());
    } else if (op == "tail" || op == "pmf") {
      double k_value = 0.0;
      std::string field_error;
      if (!require_number(request, "k", k_value, field_error) ||
          k_value < 0.0 || k_value != std::floor(k_value) ||
          k_value > 1e8) {
        return error_response(id, op, "invalid-argument",
                              field_error.empty()
                                  ? "k must be a non-negative integer <= 1e8"
                                  : field_error);
      }
      const std::size_t k = static_cast<std::size_t>(k_value);
      w.field("k", static_cast<std::uint64_t>(k));
      w.field("value", op == "tail" ? sol.tail(k) : sol.pmf(k));
      if (op == "tail") w.field("decay_rate", sol.decay_rate());
    } else if (op == "qos") {
      double deadline = 0.0;
      std::string field_error;
      if (!require_number(request, "d", deadline, field_error) ||
          !(deadline > 0.0)) {
        return error_response(
            id, op, "invalid-argument",
            field_error.empty() ? "d must be a positive deadline"
                                : field_error);
      }
      const double violation =
          core::delay_violation_probability(sol, deadline, entry.nu_bar);
      w.field("d", deadline);
      w.field("value", violation);
      w.field("success", 1.0 - violation);
      double eps = 0.0;
      if (get_double(request, "eps", eps, field_error) && eps > 0.0 &&
          eps < 1.0) {
        w.field("min_deadline",
                core::min_deadline_for(sol, eps, entry.nu_bar));
      }
    }
    return std::move(w).str();
  } catch (const DeadlineError& e) {
    return error_response(id, op, "deadline-exceeded", e.what());
  } catch (const NumericalError& e) {
    return error_response(id, op, "solver-failure", e.what());
  }
}

CachedSolution QueryEngine::solve_and_store(const ModelSpec& spec,
                                            const std::string& key) {
  PERFORMA_SPAN("daemon.solve");
  const double t0 = now_seconds();
  const core::ClusterModel model(cluster_params(spec));
  const double lambda = model.lambda_for_rho(spec.rho);
  qbd::QbdSolution solution = model.solve(lambda, config_.trust);
  solve_latency().record(now_seconds() - t0);

  CachedSolution entry;
  entry.solution =
      std::make_shared<qbd::QbdSolution>(std::move(solution));
  entry.nu_bar = model.mean_service_rate();
  entry.availability = model.availability();
  entry.utilization = spec.rho;
  entry.lambda = lambda;

  cache_.put(key, entry);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.solves;
  }
  if (journal_) {
    std::lock_guard<std::mutex> lock(journal_mutex_);
    journal_->append(key, entry);
  }
  return entry;
}

void QueryEngine::compact_journal() {
  if (!journal_) return;
  std::lock_guard<std::mutex> lock(journal_mutex_);
  journal_->compact(cache_.snapshot());
}

EngineStats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void QueryEngine::set_cache_budget(std::size_t bytes) {
  cache_.set_budget_bytes(bytes);
}

void QueryEngine::set_slow_query_seconds(double seconds) {
  slow_query_seconds_.store(seconds, std::memory_order_relaxed);
}

}  // namespace performa::daemon

// performad: the crash-only performability query daemon.
//
// Loads and solves cluster models on demand, memoizes the solutions
// under a byte budget, journals every solve so a SIGKILLed daemon
// restarts warm, and answers newline-delimited JSON queries over a
// Unix socket (optionally loopback TCP).
//
//   performad --socket /tmp/performad.sock --journal /var/lib/performad.journal
//   echo '{"op":"mean","repair":"tpt","rho":0.7}' | performa-query
//
// Signals: SIGTERM/SIGINT drain and exit 0; SIGHUP reloads --config;
// SIGKILL is *safe* -- that is the point -- the journal rehydrates the
// cache on the next start.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "daemon/server.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [options]\n"
      "\n"
      "  --socket PATH        Unix socket to listen on (required)\n"
      "  --tcp-port N         also listen on 127.0.0.1:N (default: off)\n"
      "  --workers N          solve worker threads (default 2)\n"
      "  --queue-capacity N   admission queue bound (default 64)\n"
      "  --cache-budget-mb N  solution cache budget in MiB (default 64)\n"
      "  --journal PATH       append-only cache journal (default: none)\n"
      "  --no-sync            skip fsync per journal append (faster,\n"
      "                       loses power-loss durability; SIGKILL is\n"
      "                       still safe either way)\n"
      "  --default-deadline-ms N  deadline for requests without one\n"
      "                           (default 30000)\n"
      "  --max-deadline-ms N      cap on client deadlines (default 300000)\n"
      "  --watchdog-grace-ms N    abandon a solve stuck at deadline + 2N\n"
      "                           (default 2000)\n"
      "  --config PATH        key=value file re-read on SIGHUP\n"
      "  --debug-ops          enable the debug-sleep test op\n"
      "  --slow-query-ms N    log `daemon.slow_query` for solves at\n"
      "                       least this slow (default 1000; 0 disables)\n"
      "  --flight PREFIX      crash flight recorder: keep the last ring\n"
      "                       of log/span events in PREFIX.flight.<pid>\n"
      "                       (mmap'd; survives SIGKILL, removed on a\n"
      "                       clean exit)\n"
      "\n"
      "Telemetry env: PERFORMA_LOG (NDJSON log path), PERFORMA_LOG_LEVEL,\n"
      "PERFORMA_FLIGHT (like --flight), PERFORMA_TRACE, PERFORMA_METRICS\n"
      "(path of a Prometheus text dump written at exit). GET /metrics on\n"
      "the TCP or Unix listener answers the same text as a scrape.\n",
      argv0);
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  performa::daemon::DaemonConfig config;
  config.engine.sync_journal = true;
  std::string flight_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double value = 0.0;
    if (arg == "--socket" && has_value) {
      config.socket_path = argv[++i];
    } else if (arg == "--tcp-port" && has_value &&
               parse_number(argv[++i], value)) {
      config.tcp_port = static_cast<int>(value);
    } else if (arg == "--workers" && has_value &&
               parse_number(argv[++i], value)) {
      config.workers = static_cast<unsigned>(value);
    } else if (arg == "--queue-capacity" && has_value &&
               parse_number(argv[++i], value)) {
      config.queue_capacity = static_cast<std::size_t>(value);
    } else if (arg == "--cache-budget-mb" && has_value &&
               parse_number(argv[++i], value)) {
      config.engine.cache_budget_bytes =
          static_cast<std::size_t>(value * 1024.0 * 1024.0);
    } else if (arg == "--journal" && has_value) {
      config.engine.journal_path = argv[++i];
    } else if (arg == "--no-sync") {
      config.engine.sync_journal = false;
    } else if (arg == "--default-deadline-ms" && has_value &&
               parse_number(argv[++i], value)) {
      config.default_deadline_s = value / 1e3;
    } else if (arg == "--max-deadline-ms" && has_value &&
               parse_number(argv[++i], value)) {
      config.max_deadline_s = value / 1e3;
    } else if (arg == "--watchdog-grace-ms" && has_value &&
               parse_number(argv[++i], value)) {
      config.watchdog_grace_s = value / 1e3;
    } else if (arg == "--config" && has_value) {
      config.config_path = argv[++i];
    } else if (arg == "--debug-ops") {
      config.engine.debug_ops = true;
    } else if (arg == "--slow-query-ms" && has_value &&
               parse_number(argv[++i], value)) {
      config.engine.slow_query_seconds = value / 1e3;
    } else if (arg == "--flight" && has_value) {
      flight_prefix = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "performad: bad argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "performad: --socket is required\n");
    usage(argv[0]);
    return 2;
  }
  if (!config.config_path.empty()) {
    std::string error;
    if (!performa::daemon::parse_config_file(config.config_path, config,
                                             error)) {
      std::fprintf(stderr, "performad: %s\n", error.c_str());
      return 2;
    }
  }

  performa::obs::init_trace_from_env();
  performa::obs::init_metrics_from_env();
  performa::obs::init_log_from_env();
  if (!flight_prefix.empty()) {
    performa::obs::init_flight(flight_prefix);
  } else {
    performa::obs::init_flight_from_env();
  }

  try {
    performa::daemon::Server server(std::move(config));
    server.install_signal_handlers();
    PERFORMA_LOG(kInfo, "daemon.start")
        .kv("socket", server.config().socket_path)
        .kv("tcp_port", static_cast<std::int64_t>(server.config().tcp_port))
        .kv("workers",
            static_cast<std::uint64_t>(server.config().workers))
        .kv("slow_query_s", server.config().engine.slow_query_seconds)
        .kv("flight", performa::obs::flight_path());
    // The human-facing line stays: scripts (and humans) watch for it.
    std::fprintf(stderr, "performad: listening on %s\n",
                 server.config().socket_path.c_str());
    const int rc = server.run();
    performa::obs::write_metrics_if_configured();
    // A clean drain needs no post-mortem: remove the flight file so
    // only crashed/killed daemons leave one behind.
    performa::obs::disable_flight(/*keep_file=*/false);
    return rc;
  } catch (const std::exception& e) {
    PERFORMA_LOG(kError, "daemon.fatal").kv("error", e.what());
    std::fprintf(stderr, "performad: fatal: %s\n", e.what());
    performa::obs::disable_flight(/*keep_file=*/true);
    return 1;
  }
}

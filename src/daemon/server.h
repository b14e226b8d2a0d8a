// performad's socket server: admission control, deadline propagation,
// and the watchdog, wrapped around a QueryEngine.
//
// Transport is newline-delimited JSON over a Unix domain socket (and
// optionally loopback TCP). One IO thread owns accept/read/parse and
// the *shed* path; a fixed pool of worker threads owns the solve path.
// The IO thread never blocks on a solve, so liveness probes (healthz /
// readyz) are answered even while every worker is busy -- exactly when
// an orchestrator most needs them to work.
//
// Admission control is a bounded queue between the two: when the queue
// is at capacity, new requests are answered immediately with
// `outcome: "overloaded"` rather than being buffered into unbounded
// latency. In-flight work is bounded by the worker count; there is no
// hidden concurrency.
//
// Every admitted request runs under a cooperative obs::DeadlineScope
// derived from its `deadline_ms` field (capped by the server's
// maximum), which the solver polls. The watchdog catches requests that
// ignore it: at deadline + 2*grace the worker is *abandoned* -- the
// client gets an error response right away, a replacement worker is
// spawned so pool capacity recovers, and the stuck thread is left to
// finish in the background and exit quietly. That is the thread-pool analogue of
// "kill and respawn the stuck worker": the client-facing contract
// (bounded response time, restored capacity) is identical.
//
// Signals: SIGTERM/SIGINT drain (stop accepting, finish the queue,
// compact the journal, exit); SIGHUP reloads the config file (cache
// budget, default deadline) without dropping connections.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/query.h"

namespace performa::daemon {

struct DaemonConfig {
  std::string socket_path;      ///< Unix socket path (required)
  int tcp_port = 0;             ///< optional loopback TCP listener, 0 = off
  unsigned workers = 2;         ///< solve worker threads (>= 1)
  std::size_t queue_capacity = 64;  ///< admission queue bound
  double default_deadline_s = 30.0; ///< applied when a request has none
  double max_deadline_s = 300.0;    ///< cap on client-supplied deadlines
  double watchdog_grace_s = 2.0;    ///< abandon at deadline + 2 * grace
  std::string config_path;      ///< key=value file re-read on SIGHUP
  EngineConfig engine;
};

/// Parse a `key = value` config file (one pair per line, '#' comments)
/// into overrides on `config`. Recognized keys: cache_budget_bytes,
/// default_deadline_s, max_deadline_s, watchdog_grace_s, slow_query_s.
/// Unknown keys are reported in `error` (first offender) and the file
/// is rejected wholesale -- a typo must not silently half-apply.
bool parse_config_file(const std::string& path, DaemonConfig& config,
                       std::string& error);

class Server {
 public:
  explicit Server(DaemonConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Rehydrate the cache, open the listeners, run until shutdown.
  /// Returns a process exit code (0 on clean drain).
  int run();

  /// Ask the server to drain and exit (signal-safe flag; also callable
  /// from tests around a run() thread).
  void request_shutdown() noexcept { shutdown_.store(true); }

  /// Ask the server to re-read its config file (SIGHUP path).
  void request_reload() noexcept { reload_.store(true); }

  /// True once listeners are open and the journal is rehydrated.
  bool ready() const noexcept { return ready_.load(); }

  /// Spin until ready() or `timeout_s` elapses; false on timeout.
  bool wait_ready(double timeout_s) const;

  QueryEngine& engine() noexcept { return engine_; }
  const DaemonConfig& config() const noexcept { return config_; }

  /// Install SIGTERM/SIGINT -> shutdown, SIGHUP -> reload handlers
  /// routing to this server instance (one instance per process).
  void install_signal_handlers();

 private:
  struct Connection;
  struct Request;
  struct WorkerSlot;
  struct Impl;

  void io_loop();
  void worker_loop_for(WorkerSlot* slot);
  void watchdog_loop();
  void handle_request(const std::shared_ptr<Request>& request,
                      WorkerSlot* slot);
  void dispatch_line(const std::shared_ptr<Connection>& conn,
                     const std::string& line);
  void apply_reload();

  DaemonConfig config_;
  QueryEngine engine_;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> reload_{false};
  std::atomic<bool> ready_{false};
  std::atomic<bool> draining_{false};
};

}  // namespace performa::daemon

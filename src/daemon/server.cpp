#include "daemon/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "linalg/errors.h"
#include "obs/deadline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace performa::daemon {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string simple_response(const std::string& id, const std::string& op,
                            const std::string& qid, bool ok,
                            const std::string& outcome,
                            const std::string& message = "") {
  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  if (!op.empty()) w.field("op", op);
  if (!qid.empty()) w.field("qid", qid);
  w.field("ok", ok);
  w.field("outcome", outcome);
  if (!message.empty()) w.field("error", message);
  return std::move(w).str();
}

// Signal handlers route to one server instance per process.
std::atomic<Server*> g_signal_server{nullptr};

void on_terminate_signal(int) {
  if (Server* s = g_signal_server.load()) s->request_shutdown();
}

void on_hup_signal(int) {
  if (Server* s = g_signal_server.load()) s->request_reload();
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool parse_config_file(const std::string& path, DaemonConfig& config,
                       std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open config file '" + path + "'";
    return false;
  }
  DaemonConfig next = config;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      error = path + ":" + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    const bool numeric =
        !value.empty() && end == value.c_str() + value.size();
    if (!numeric) {
      error = path + ":" + std::to_string(lineno) + ": non-numeric value '" +
              value + "'";
      return false;
    }
    if (key == "cache_budget_bytes") {
      if (v < 0) {
        error = path + ":" + std::to_string(lineno) +
                ": cache_budget_bytes must be >= 0";
        return false;
      }
      next.engine.cache_budget_bytes = static_cast<std::size_t>(v);
    } else if (key == "default_deadline_s") {
      next.default_deadline_s = v;
    } else if (key == "max_deadline_s") {
      next.max_deadline_s = v;
    } else if (key == "watchdog_grace_s") {
      next.watchdog_grace_s = v;
    } else if (key == "slow_query_s") {
      next.engine.slow_query_seconds = v;
    } else {
      error = path + ":" + std::to_string(lineno) + ": unknown key '" + key +
              "' (the whole file is rejected; fix or remove the line)";
      return false;
    }
  }
  config = next;
  return true;
}

// ---------------------------------------------------------------------------

struct Server::Connection {
  int fd = -1;
  std::string buffer;
  std::mutex write_mutex;
  std::atomic<bool> open{true};

  void send_line(const std::string& line) { send_raw(line + '\n'); }

  void send_raw(const std::string& out) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!open.load()) return;
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        open.store(false);  // peer went away; IO loop reaps the fd
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }
};

struct Server::Request {
  std::shared_ptr<Connection> conn;
  JsonObject body;
  std::string id;
  std::string op;
  std::string qid;  ///< query id minted at admission
  obs::Deadline deadline;
  Clock::time_point enqueued_at{};
  /// Whoever flips this false->true owns the response (worker on
  /// normal completion, watchdog on abandonment) -- exactly one reply
  /// per request, no double-send race.
  std::atomic<bool> completed{false};
};

struct Server::WorkerSlot {
  std::thread thread;
  std::atomic<bool> busy{false};
  std::atomic<bool> retired{false};
  std::mutex mutex;  // guards current/started_at
  std::shared_ptr<Request> current;
  Clock::time_point started_at{};
};

struct Server::Impl {
  // Listeners.
  int unix_fd = -1;
  int tcp_fd = -1;

  // Connections, owned by the IO thread.
  std::unordered_map<int, std::shared_ptr<Connection>> connections;

  // Admission queue.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<Request>> queue;
  bool stop_workers = false;

  // Worker pool; grows when the watchdog replaces an abandoned worker.
  std::mutex slots_mutex;
  std::vector<std::unique_ptr<WorkerSlot>> slots;

  std::thread watchdog;
  std::atomic<bool> stop_watchdog{false};
  std::atomic<int> inflight{0};
  std::atomic<double> watchdog_grace_s{2.0};
};

Server::Server(DaemonConfig config)
    : config_(std::move(config)),
      engine_(config_.engine),
      impl_(std::make_unique<Impl>()) {
  PERFORMA_EXPECTS(!config_.socket_path.empty(),
                   "Server: socket_path is required");
  PERFORMA_EXPECTS(config_.workers >= 1, "Server: workers must be >= 1");
  PERFORMA_EXPECTS(config_.queue_capacity >= 1,
                   "Server: queue_capacity must be >= 1");
  impl_->watchdog_grace_s.store(config_.watchdog_grace_s);
}

Server::~Server() {
  if (g_signal_server.load() == this) g_signal_server.store(nullptr);
}

void Server::install_signal_handlers() {
  g_signal_server.store(this);
  struct ::sigaction sa {};
  sa.sa_handler = on_terminate_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = on_hup_signal;
  ::sigaction(SIGHUP, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

bool Server::wait_ready(double timeout_s) const {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < until) {
    if (ready_.load()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return ready_.load();
}

namespace {

int open_unix_listener(const std::string& path) {
  PERFORMA_EXPECTS(path.size() < sizeof(sockaddr_un{}.sun_path),
                   "Server: socket path too long: '" + path + "'");
  // Non-blocking listener: the IO loop accepts in a drain loop after
  // POLLIN, which must end with EAGAIN rather than a blocking accept.
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw NumericalError(std::string("Server: socket(AF_UNIX): ") +
                         std::strerror(errno));
  }
  ::unlink(path.c_str());  // stale socket from a previous (killed) daemon
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw NumericalError("Server: cannot listen on '" + path + "': " + why);
  }
  return fd;
}

int open_tcp_listener(int port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw NumericalError(std::string("Server: socket(AF_INET): ") +
                         std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw NumericalError("Server: cannot listen on 127.0.0.1:" +
                         std::to_string(port) + ": " + why);
  }
  return fd;
}

}  // namespace

int Server::run() {
  PERFORMA_SPAN("daemon.run");

  const JournalLoad recovered = engine_.rehydrate();
  if (recovered.records > 0 || recovered.dropped_records > 0) {
    PERFORMA_LOG(kInfo, "daemon.journal_rehydrated")
        .kv("entries", static_cast<std::uint64_t>(recovered.entries.size()))
        .kv("records", static_cast<std::uint64_t>(recovered.records))
        .kv("dropped", static_cast<std::uint64_t>(recovered.dropped_records));
  }

  impl_->unix_fd = open_unix_listener(config_.socket_path);
  if (config_.tcp_port > 0) {
    impl_->tcp_fd = open_tcp_listener(config_.tcp_port);
  }

  {
    std::lock_guard<std::mutex> lock(impl_->slots_mutex);
    for (unsigned i = 0; i < config_.workers; ++i) {
      auto slot = std::make_unique<WorkerSlot>();
      WorkerSlot* raw = slot.get();
      slot->thread = std::thread([this, raw] { worker_loop_for(raw); });
      impl_->slots.push_back(std::move(slot));
    }
  }
  impl_->watchdog = std::thread([this] { watchdog_loop(); });

  ready_.store(true);
  io_loop();
  ready_.store(false);

  // Wind-down: stop the pool (the queue is already drained), the
  // watchdog, and persist a compacted journal. Abandoned workers are
  // joined too -- a truly wedged thread blocks exit here, and the
  // orchestrator's escalation to SIGKILL is exactly the crash the
  // journal is designed to absorb.
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->stop_workers = true;
  }
  impl_->queue_cv.notify_all();
  impl_->stop_watchdog.store(true);
  if (impl_->watchdog.joinable()) impl_->watchdog.join();
  {
    std::lock_guard<std::mutex> lock(impl_->slots_mutex);
    for (auto& slot : impl_->slots) {
      if (slot->thread.joinable()) slot->thread.join();
    }
  }
  for (auto& [fd, conn] : impl_->connections) {
    conn->open.store(false);
    ::close(fd);
  }
  impl_->connections.clear();
  if (impl_->unix_fd >= 0) ::close(impl_->unix_fd);
  if (impl_->tcp_fd >= 0) ::close(impl_->tcp_fd);
  ::unlink(config_.socket_path.c_str());
  try {
    engine_.compact_journal();
  } catch (const std::exception& e) {
    PERFORMA_LOG(kError, "daemon.compact_failed").kv("error", e.what());
  }
  PERFORMA_LOG(kInfo, "daemon.drained");
  return 0;
}

void Server::io_loop() {
  static obs::Gauge& conn_gauge = obs::gauge("daemon.connections");
  std::vector<pollfd> fds;

  while (true) {
    if (reload_.exchange(false)) apply_reload();

    if (shutdown_.load() && !draining_.load()) {
      draining_.store(true);
      if (impl_->unix_fd >= 0) {
        ::close(impl_->unix_fd);
        impl_->unix_fd = -1;
      }
      if (impl_->tcp_fd >= 0) {
        ::close(impl_->tcp_fd);
        impl_->tcp_fd = -1;
      }
    }
    if (draining_.load()) {
      std::unique_lock<std::mutex> lock(impl_->queue_mutex);
      const bool queue_empty = impl_->queue.empty();
      lock.unlock();
      if (queue_empty && impl_->inflight.load() == 0) break;
    }

    fds.clear();
    if (impl_->unix_fd >= 0) fds.push_back({impl_->unix_fd, POLLIN, 0});
    if (impl_->tcp_fd >= 0) fds.push_back({impl_->tcp_fd, POLLIN, 0});
    const std::size_t first_conn = fds.size();
    for (const auto& [fd, conn] : impl_->connections) {
      fds.push_back({fd, POLLIN, 0});
    }

    const int nready = ::poll(fds.data(), fds.size(), 100);
    if (nready < 0 && errno != EINTR) break;
    if (nready <= 0) continue;

    // Accept on ready listeners.
    for (std::size_t i = 0; i < first_conn; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      while (true) {
        const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
        if (cfd < 0) break;
        auto conn = std::make_shared<Connection>();
        conn->fd = cfd;
        impl_->connections.emplace(cfd, std::move(conn));
      }
    }
    conn_gauge.set(static_cast<double>(impl_->connections.size()));

    // Read ready connections.
    std::vector<int> dead;
    for (std::size_t i = first_conn; i < fds.size(); ++i) {
      const auto it = impl_->connections.find(fds[i].fd);
      if (it == impl_->connections.end()) continue;
      const std::shared_ptr<Connection>& conn = it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        dead.push_back(fds[i].fd);
        continue;
      }
      if ((fds[i].revents & POLLIN) == 0) {
        if (!conn->open.load()) dead.push_back(fds[i].fd);
        continue;
      }
      char buf[65536];
      const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        dead.push_back(fds[i].fd);
        continue;
      }
      conn->buffer.append(buf, static_cast<std::size_t>(n));
      if (conn->buffer.size() > (std::size_t{1} << 20)) {
        conn->send_line(simple_response("", "", "", false, "parse-error",
                                        "request line exceeds 1 MiB"));
        dead.push_back(fds[i].fd);
        continue;
      }
      std::size_t start = 0;
      while (true) {
        const std::size_t nl = conn->buffer.find('\n', start);
        if (nl == std::string::npos) break;
        std::string line = conn->buffer.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        start = nl + 1;
        if (!line.empty()) dispatch_line(conn, line);
      }
      conn->buffer.erase(0, start);
      if (!conn->open.load()) dead.push_back(fds[i].fd);
    }
    for (int fd : dead) {
      const auto it = impl_->connections.find(fd);
      if (it == impl_->connections.end()) continue;
      it->second->open.store(false);
      ::close(fd);
      impl_->connections.erase(it);
    }
  }
}

void Server::dispatch_line(const std::shared_ptr<Connection>& conn,
                           const std::string& line) {
  static obs::Counter& requests = obs::counter("daemon.requests");
  static obs::Counter& shed = obs::counter("daemon.queue.shed");
  static obs::Counter& scrapes = obs::counter("daemon.scrapes");
  static obs::Gauge& depth = obs::gauge("daemon.queue.depth");
  if (!conn->open.load()) return;  // trailing HTTP header lines

  // HTTP-ish plane: a Prometheus scraper speaks `GET /metrics` at the
  // TCP listener. One minimal HTTP/1.0 exchange per connection -- the
  // exposition is rendered on the IO thread (snapshot + string build,
  // no solver work) and the connection closes, exactly the lifecycle a
  // scraper expects. Anything else GET-shaped gets a 404.
  if (line.rfind("GET ", 0) == 0) {
    const std::size_t path_end = line.find(' ', 4);
    const std::string target =
        line.substr(4, path_end == std::string::npos ? std::string::npos
                                                     : path_end - 4);
    std::string body;
    const char* status = "404 Not Found";
    if (target == "/metrics") {
      scrapes.add(1);
      body = obs::prometheus_metrics();
      status = "200 OK";
    } else {
      body = "performad: unknown path " + target + "\n";
    }
    std::string reply = "HTTP/1.0 ";
    reply += status;
    reply +=
        "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
        "\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
    reply += body;
    conn->send_raw(reply);
    conn->open.store(false);  // IO loop reaps the fd after this batch
    return;
  }

  requests.add(1);
  // Query identity starts here: every reply this line provokes --
  // including parse errors and sheds -- carries a fresh qid that
  // matching log lines, spans and flight records also carry.
  const std::string qid = obs::mint_query_id();

  JsonObject body;
  std::string parse_error;
  if (!parse_json_object(line, body, parse_error)) {
    conn->send_line(simple_response("", "", qid, false, "parse-error",
                                    parse_error));
    return;
  }
  const std::string id = body.string("id", "");
  const std::string op = body.string("op", "");

  // Liveness plane: answered on the IO thread so probes keep working
  // while every worker is wedged or the queue is full.
  if (op == "healthz") {
    conn->send_line(simple_response(id, op, qid, true, "ok"));
    return;
  }
  if (op == "readyz") {
    const bool ok = ready_.load() && !draining_.load();
    conn->send_line(simple_response(id, op, qid, ok, ok ? "ok" : "not-ready"));
    return;
  }
  if (op == "reload") {
    request_reload();
    conn->send_line(simple_response(id, op, qid, true, "ok"));
    return;
  }
  if (op == "shutdown") {
    conn->send_line(simple_response(id, op, qid, true, "ok"));
    request_shutdown();
    return;
  }

  if (draining_.load()) {
    shed.add(1);
    conn->send_line(simple_response(id, op, qid, false, "overloaded",
                                    "daemon is draining"));
    return;
  }

  auto request = std::make_shared<Request>();
  request->conn = conn;
  request->body = std::move(body);
  request->id = id;
  request->op = op;
  request->qid = qid;
  double deadline_s = config_.default_deadline_s;
  const JsonValue* dl = request->body.find("deadline_ms");
  if (dl != nullptr && dl->kind == JsonValue::Kind::kNumber) {
    deadline_s = dl->number / 1e3;  // <= 0 means "already expired"
  }
  deadline_s = std::min(deadline_s, config_.max_deadline_s);
  request->deadline = obs::Deadline::after_seconds(deadline_s);
  request->enqueued_at = Clock::now();

  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    if (impl_->queue.size() >= config_.queue_capacity) {
      shed.add(1);
      PERFORMA_LOG(kWarn, "daemon.overloaded")
          .kv("qid", qid)
          .kv("op", op)
          .kv("queue_capacity",
              static_cast<std::uint64_t>(config_.queue_capacity));
      conn->send_line(simple_response(
          id, op, qid, false, "overloaded",
          "admission queue full (" + std::to_string(config_.queue_capacity) +
              " waiting); retry with backoff"));
      return;
    }
    impl_->queue.push_back(std::move(request));
    depth.set(static_cast<double>(impl_->queue.size()));
  }
  impl_->queue_cv.notify_one();
}

void Server::worker_loop_for(WorkerSlot* slot) {
  static obs::Gauge& depth = obs::gauge("daemon.queue.depth");
  static obs::Gauge& inflight_gauge = obs::gauge("daemon.inflight");
  while (true) {
    std::shared_ptr<Request> request;
    {
      std::unique_lock<std::mutex> lock(impl_->queue_mutex);
      impl_->queue_cv.wait(lock, [this] {
        return impl_->stop_workers || !impl_->queue.empty();
      });
      if (impl_->queue.empty()) {
        if (impl_->stop_workers) return;
        continue;
      }
      request = std::move(impl_->queue.front());
      impl_->queue.pop_front();
      depth.set(static_cast<double>(impl_->queue.size()));
    }
    impl_->inflight.fetch_add(1);
    inflight_gauge.set(static_cast<double>(impl_->inflight.load()));
    {
      std::lock_guard<std::mutex> lock(slot->mutex);
      slot->current = request;
      slot->started_at = Clock::now();
    }
    slot->busy.store(true);

    handle_request(request, slot);

    slot->busy.store(false);
    {
      std::lock_guard<std::mutex> lock(slot->mutex);
      slot->current.reset();
    }
    if (slot->retired.load()) return;  // a replacement already runs
  }
}

void Server::handle_request(const std::shared_ptr<Request>& request,
                            WorkerSlot* slot) {
  static obs::Histogram& latency = obs::histogram("daemon.request.seconds");
  static obs::Gauge& inflight_gauge = obs::gauge("daemon.inflight");
  (void)slot;

  std::string response;
  try {
    // The qid scope makes every log line, span and SolveReport produced
    // by this solve carry the request's query id; the deadline scope
    // bounds the work.
    obs::QueryIdScope qid_scope(request->qid);
    obs::DeadlineScope scope(request->deadline);
    response = engine_.handle(request->body);
  } catch (const std::exception& e) {
    PERFORMA_LOG(kError, "daemon.request_failed")
        .kv("qid", request->qid)
        .kv("op", request->op)
        .kv("error", e.what());
    response = simple_response(request->id, request->op, request->qid, false,
                               "solver-failure", e.what());
  }

  if (!request->completed.exchange(true)) {
    request->conn->send_line(response);
    latency.record(seconds_since(request->enqueued_at));
    impl_->inflight.fetch_sub(1);
    inflight_gauge.set(static_cast<double>(impl_->inflight.load()));
  }
}

void Server::watchdog_loop() {
  static obs::Counter& abandoned = obs::counter("daemon.watchdog.abandoned");
  static obs::Gauge& inflight_gauge = obs::gauge("daemon.inflight");

  while (!impl_->stop_watchdog.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double grace = impl_->watchdog_grace_s.load();

    std::vector<WorkerSlot*> slots;
    {
      std::lock_guard<std::mutex> lock(impl_->slots_mutex);
      slots.reserve(impl_->slots.size());
      for (auto& s : impl_->slots) slots.push_back(s.get());
    }
    for (WorkerSlot* slot : slots) {
      if (!slot->busy.load() || slot->retired.load()) continue;
      std::shared_ptr<Request> request;
      {
        std::lock_guard<std::mutex> lock(slot->mutex);
        request = slot->current;
      }
      if (!request || request->completed.load()) continue;

      // Every admitted request runs under a wall-clock deadline that
      // its solver polls. One that is still running two grace periods
      // past it ignores the deadline: abandon it. The client gets its
      // error now, a fresh worker restores pool capacity, and the stuck
      // thread exits quietly whenever it finally returns.
      if (request->deadline.remaining_seconds() > -2.0 * grace) continue;
      if (!request->completed.exchange(true)) {
        request->conn->send_line(simple_response(
            request->id, request->op, request->qid, false,
            "deadline-exceeded",
            "watchdog: solve ignored its deadline; worker abandoned"));
        impl_->inflight.fetch_sub(1);
        inflight_gauge.set(static_cast<double>(impl_->inflight.load()));
      }
      slot->retired.store(true);
      abandoned.add(1);
      PERFORMA_LOG(kError, "daemon.watchdog_abandoned")
          .kv("qid", request->qid)
          .kv("op", request->op)
          .kv("grace_s", grace);
      {
        std::lock_guard<std::mutex> lock(impl_->slots_mutex);
        auto fresh = std::make_unique<WorkerSlot>();
        WorkerSlot* raw = fresh.get();
        fresh->thread = std::thread([this, raw] { worker_loop_for(raw); });
        impl_->slots.push_back(std::move(fresh));
      }
    }
  }
}

void Server::apply_reload() {
  static obs::Counter& reloads = obs::counter("daemon.reloads");
  reloads.add(1);
  if (config_.config_path.empty()) {
    PERFORMA_LOG(kWarn, "daemon.reload_skipped")
        .kv("reason", "SIGHUP received but no --config file to reload");
    return;
  }
  DaemonConfig next = config_;
  std::string error;
  if (!parse_config_file(config_.config_path, next, error)) {
    PERFORMA_LOG(kError, "daemon.reload_rejected").kv("error", error);
    return;
  }
  config_.default_deadline_s = next.default_deadline_s;
  config_.max_deadline_s = next.max_deadline_s;
  config_.watchdog_grace_s = next.watchdog_grace_s;
  impl_->watchdog_grace_s.store(next.watchdog_grace_s);
  if (next.engine.cache_budget_bytes != config_.engine.cache_budget_bytes) {
    config_.engine.cache_budget_bytes = next.engine.cache_budget_bytes;
    engine_.set_cache_budget(next.engine.cache_budget_bytes);
  }
  if (next.engine.slow_query_seconds != config_.engine.slow_query_seconds) {
    config_.engine.slow_query_seconds = next.engine.slow_query_seconds;
    engine_.set_slow_query_seconds(next.engine.slow_query_seconds);
  }
  PERFORMA_LOG(kInfo, "daemon.config_reloaded")
      .kv("cache_budget_bytes",
          static_cast<std::uint64_t>(config_.engine.cache_budget_bytes))
      .kv("default_deadline_s", config_.default_deadline_s)
      .kv("watchdog_grace_s", config_.watchdog_grace_s)
      .kv("slow_query_s", config_.engine.slow_query_seconds);
}

}  // namespace performa::daemon

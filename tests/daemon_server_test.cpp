// In-process tests of performad's socket server: liveness plane,
// admission control (bounded queue, explicit overload shedding),
// the loopback TCP listener, watchdog abandonment of a wedged worker,
// SIGHUP-style config reload, and clean drain. Uses the gated
// debug-sleep op to make timing deterministic: a "stuck solve" is a
// sleep that ignores its deadline.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/server.h"

namespace performa::daemon {
namespace {

class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/performad_server_test_XXXXXX";
    dir_ = ::mkdtemp(pattern);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::string cmd = "rm -rf '" + dir_ + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

/// Minimal synchronous NDJSON client.
class TestClient {
 public:
  explicit TestClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof addr) == 0;
  }
  /// Connect to the loopback TCP listener on `port`.
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string recv_line() {
    while (true) {
      const std::size_t nl = carry_.find('\n');
      if (nl != std::string::npos) {
        std::string line = carry_.substr(0, nl);
        carry_.erase(0, nl + 1);
        return line;
      }
      char buf[8192];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return "";
      carry_.append(buf, static_cast<std::size_t>(n));
    }
  }

  std::string roundtrip(const std::string& line) {
    send_line(line);
    return recv_line();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string carry_;
};

/// Server running on a background thread for one test.
class ServerFixture {
 public:
  explicit ServerFixture(DaemonConfig config)
      : server_(std::move(config)),
        thread_([this] { exit_code_ = server_.run(); }) {
    ready_ = server_.wait_ready(10.0);
  }
  ~ServerFixture() { shutdown(); }

  void shutdown() {
    server_.request_shutdown();
    if (thread_.joinable()) thread_.join();
  }

  bool ready() const { return ready_; }
  int exit_code() const { return exit_code_; }
  Server& server() { return server_; }

 private:
  Server server_;
  int exit_code_ = -1;
  std::thread thread_;
  bool ready_ = false;
};

DaemonConfig base_config(const TempDir& tmp) {
  DaemonConfig config;
  config.socket_path = tmp.path("daemon.sock");
  config.workers = 1;
  config.queue_capacity = 2;
  config.engine.debug_ops = true;
  return config;
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(DaemonServerTest, PingHealthReadyAndQueries) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));
  ASSERT_TRUE(fixture.ready());

  TestClient client(tmp.path("daemon.sock"));
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(contains(client.roundtrip(R"({"op":"ping"})"), "\"ok\":true"));
  EXPECT_TRUE(
      contains(client.roundtrip(R"({"op":"healthz"})"), "\"ok\":true"));
  EXPECT_TRUE(
      contains(client.roundtrip(R"({"op":"readyz"})"), "\"ok\":true"));

  const std::string mean =
      client.roundtrip(R"({"op":"mean","rho":0.6,"id":"q"})");
  EXPECT_TRUE(contains(mean, "\"ok\":true")) << mean;
  EXPECT_TRUE(contains(mean, "\"id\":\"q\"")) << mean;
  EXPECT_TRUE(contains(mean, "\"cached\":false")) << mean;
  EXPECT_TRUE(contains(client.roundtrip(R"({"op":"mean","rho":0.6})"),
                       "\"cached\":true"));

  // Malformed line: typed parse error, connection stays usable.
  EXPECT_TRUE(contains(client.roundtrip("{oops"), "parse-error"));
  EXPECT_TRUE(contains(client.roundtrip(R"({"op":"ping"})"), "\"ok\":true"));

  fixture.shutdown();
  EXPECT_EQ(fixture.exit_code(), 0);
}

// A loopback port that was free a moment ago: bind port 0 and read back
// the port the kernel chose.
int free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  int port = 0;
  if (fd >= 0 &&
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) ::close(fd);
  return port;
}

TEST(DaemonServerTest, AnswersPingOverLoopbackTcp) {
  TempDir tmp;
  DaemonConfig config = base_config(tmp);
  config.tcp_port = free_loopback_port();
  ASSERT_GT(config.tcp_port, 0);
  const int port = config.tcp_port;
  ServerFixture fixture(std::move(config));
  ASSERT_TRUE(fixture.ready());

  TestClient client(port);
  ASSERT_TRUE(client.connected());
  const std::string reply = client.roundtrip(R"({"op":"ping","id":"t"})");
  EXPECT_TRUE(contains(reply, "\"ok\":true")) << reply;
  EXPECT_TRUE(contains(reply, "\"id\":\"t\"")) << reply;

  fixture.shutdown();
  EXPECT_EQ(fixture.exit_code(), 0);
}

TEST(DaemonServerTest, ShedsExplicitlyPastTheWatermark) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));  // 1 worker, queue of 2
  ASSERT_TRUE(fixture.ready());

  TestClient client(tmp.path("daemon.sock"));
  ASSERT_TRUE(client.connected());
  // Pipeline 8 slow requests at once: capacity is 1 in flight + 2
  // queued, so at least 4 must be shed immediately with an explicit
  // overloaded outcome (never buffered, never silently dropped).
  const int total = 8;
  for (int i = 0; i < total; ++i) {
    client.send_line(R"({"op":"debug-sleep","seconds":0.5,"id":"s"})");
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < total; ++i) {
    const std::string response = client.recv_line();
    ASSERT_FALSE(response.empty());
    if (contains(response, "\"outcome\":\"overloaded\"")) {
      ++overloaded;
      EXPECT_TRUE(contains(response, "\"ok\":false")) << response;
      EXPECT_TRUE(contains(response, "retry")) << response;
    } else if (contains(response, "\"ok\":true")) {
      ++ok;
    }
  }
  EXPECT_EQ(ok + overloaded, total);
  EXPECT_GE(overloaded, 4);  // >= 2x capacity load sheds, not queues
  // Admitted = 2 queued plus 0..2 the worker popped between dispatches
  // (timing-dependent under a loaded machine); all of them complete.
  EXPECT_GE(ok, 2);
  EXPECT_LE(ok, 4);
}

TEST(DaemonServerTest, LivenessAnswersWhileWorkersAreWedged) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));
  ASSERT_TRUE(fixture.ready());

  TestClient wedger(tmp.path("daemon.sock"));
  ASSERT_TRUE(wedger.connected());
  // Wedge the only worker (ignores cancellation) and fill the queue.
  wedger.send_line(
      R"({"op":"debug-sleep","seconds":1.0,"ignore_cancel":true})");
  wedger.send_line(R"({"op":"debug-sleep","seconds":0.1})");
  wedger.send_line(R"({"op":"debug-sleep","seconds":0.1})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The liveness plane lives on the IO thread: probes answer now.
  TestClient probe(tmp.path("daemon.sock"));
  ASSERT_TRUE(probe.connected());
  EXPECT_TRUE(
      contains(probe.roundtrip(R"({"op":"healthz"})"), "\"ok\":true"));
  EXPECT_TRUE(
      contains(probe.roundtrip(R"({"op":"readyz"})"), "\"ok\":true"));
}

TEST(DaemonServerTest, WatchdogAbandonsStuckWorkerAndRestoresCapacity) {
  TempDir tmp;
  DaemonConfig config = base_config(tmp);
  config.watchdog_grace_s = 0.1;
  ServerFixture fixture(std::move(config));
  ASSERT_TRUE(fixture.ready());

  TestClient client(tmp.path("daemon.sock"));
  ASSERT_TRUE(client.connected());
  // A request that blows its 100ms deadline and ignores it: the
  // watchdog must abandon the worker at deadline+2*grace and answer the
  // client with a deadline error -- long before the 2-second sleep
  // finishes.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string response = client.roundtrip(
      R"({"op":"debug-sleep","seconds":2.0,"ignore_cancel":true,)"
      R"("deadline_ms":100})");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(contains(response, "\"outcome\":\"deadline-exceeded\""))
      << response;
  EXPECT_TRUE(contains(response, "watchdog")) << response;
  EXPECT_LT(elapsed, 1.5);  // answered by the watchdog, not the sleep

  // Capacity is restored by the replacement worker while the stuck
  // thread is still sleeping.
  const std::string after =
      client.roundtrip(R"({"op":"debug-sleep","seconds":0.05})");
  EXPECT_TRUE(contains(after, "\"ok\":true")) << after;
}

TEST(DaemonServerTest, CooperativeDeadlineAnsweredByWorkerItself) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));
  ASSERT_TRUE(fixture.ready());

  TestClient client(tmp.path("daemon.sock"));
  ASSERT_TRUE(client.connected());
  // This sleep polls the deadline: it must answer quickly WITHOUT the
  // watchdog (outcome carries the op's own cancellation message).
  const std::string response = client.roundtrip(
      R"({"op":"debug-sleep","seconds":5.0,"deadline_ms":100})");
  EXPECT_TRUE(contains(response, "\"outcome\":\"deadline-exceeded\""))
      << response;
  EXPECT_TRUE(contains(response, "cancelled")) << response;
}

TEST(DaemonServerTest, ReloadAppliesCacheBudgetFromConfigFile) {
  TempDir tmp;
  DaemonConfig config = base_config(tmp);
  config.config_path = tmp.path("performad.conf");
  {
    std::ofstream out(config.config_path);
    out << "# budget applied on reload\n"
        << "cache_budget_bytes = 123456\n"
        << "watchdog_grace_s = 0.5\n";
  }
  ServerFixture fixture(std::move(config));
  ASSERT_TRUE(fixture.ready());

  TestClient client(tmp.path("daemon.sock"));
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(
      contains(client.roundtrip(R"({"op":"reload"})"), "\"ok\":true"));
  // The reload is applied by the IO loop; poll the stats op for it.
  bool applied = false;
  for (int i = 0; i < 100 && !applied; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    applied = contains(client.roundtrip(R"({"op":"stats"})"),
                       "\"cache_budget_bytes\":123456");
  }
  EXPECT_TRUE(applied);
}

TEST(DaemonServerTest, RejectsConfigFileWithUnknownKey) {
  TempDir tmp;
  DaemonConfig config;
  std::string error;
  const std::string path = tmp.path("bad.conf");
  {
    std::ofstream out(path);
    out << "cache_budget_bytes = 1\nnot_a_key = 2\n";
  }
  EXPECT_FALSE(parse_config_file(path, config, error));
  EXPECT_TRUE(contains(error, "not_a_key"));
  // The valid line above the typo must not have been half-applied.
  EXPECT_NE(config.engine.cache_budget_bytes, 1u);
}

TEST(DaemonServerTest, DrainAnswersQueuedWorkThenExitsZero) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));
  ASSERT_TRUE(fixture.ready());

  TestClient client(tmp.path("daemon.sock"));
  ASSERT_TRUE(client.connected());
  client.send_line(R"({"op":"debug-sleep","seconds":0.3,"id":"inflight"})");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture.server().request_shutdown();

  // The in-flight request is answered during the drain.
  const std::string response = client.recv_line();
  EXPECT_TRUE(contains(response, "\"ok\":true")) << response;
  fixture.shutdown();
  EXPECT_EQ(fixture.exit_code(), 0);
}

}  // namespace
}  // namespace performa::daemon

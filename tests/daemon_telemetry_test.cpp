// performad's telemetry plane: query ids on every wire reply, the
// Prometheus /metrics scrape endpoint on the socket listeners, and the
// threshold-based slow-query log.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "daemon/server.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace performa::daemon {
namespace {

class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/performad_telemetry_test_XXXXXX";
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

  /// Drain until the server closes the connection (HTTP exchange).
  std::string recv_all() {
    std::string out = carry_;
    carry_.clear();
    char buf[8192];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
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
  config.engine.debug_ops = true;
  return config;
}

std::string json_string_field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  return end == std::string::npos ? "" : line.substr(start, end - start);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DaemonTelemetryTest, EveryReplyCarriesAFreshQueryId) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));
  ASSERT_TRUE(fixture.ready());
  TestClient client(fixture.server().config().socket_path);
  ASSERT_TRUE(client.connected());

  std::set<std::string> seen;
  // Liveness, solve, and error replies alike carry the qid.
  for (const char* req :
       {R"({"op":"ping"})", R"({"op":"mean","rho":0.5})",
        R"({"op":"no-such-op"})", "not json at all"}) {
    const std::string reply = client.roundtrip(req);
    const std::string qid = json_string_field(reply, "qid");
    ASSERT_EQ(qid.rfind("q-", 0), 0u) << "no qid in reply: " << reply;
    seen.insert(qid);
  }
  EXPECT_EQ(seen.size(), 4u);  // ids are per-request, never reused
}

TEST(DaemonTelemetryTest, MetricsEndpointSpeaksPrometheusText) {
  TempDir tmp;
  ServerFixture fixture(base_config(tmp));
  ASSERT_TRUE(fixture.ready());

  {
    // Prime a counter so the exposition is non-trivial.
    TestClient warm(fixture.server().config().socket_path);
    ASSERT_TRUE(warm.connected());
    warm.roundtrip(R"({"op":"ping"})");
  }

  TestClient scraper(fixture.server().config().socket_path);
  ASSERT_TRUE(scraper.connected());
  scraper.send_line("GET /metrics HTTP/1.0");
  const std::string reply = scraper.recv_all();

  EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
  EXPECT_NE(reply.find("# TYPE daemon_requests counter"), std::string::npos);
  EXPECT_NE(reply.find("# TYPE daemon_scrapes counter"), std::string::npos);

  // Content-Length matches the body byte count.
  const std::size_t cl_at = reply.find("Content-Length: ");
  ASSERT_NE(cl_at, std::string::npos);
  const std::size_t body_at = reply.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::size_t declared =
      std::strtoull(reply.c_str() + cl_at + 16, nullptr, 10);
  EXPECT_EQ(declared, reply.size() - (body_at + 4));

  TestClient other(fixture.server().config().socket_path);
  ASSERT_TRUE(other.connected());
  other.send_line("GET /nope HTTP/1.0");
  const std::string nope = other.recv_all();
  EXPECT_EQ(nope.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << nope;
}

TEST(DaemonTelemetryTest, SlowQueryLogJoinsWireReplyByQid) {
  TempDir tmp;
  DaemonConfig config = base_config(tmp);
  // Any real solve is slower than a nanosecond: every fresh solve logs.
  config.engine.slow_query_seconds = 1e-9;
  const std::string log_path = tmp.path("daemon.log");
  obs::set_log_file(log_path);

  std::string reply;
  {
    ServerFixture fixture(std::move(config));
    ASSERT_TRUE(fixture.ready());
    TestClient client(fixture.server().config().socket_path);
    ASSERT_TRUE(client.connected());
    reply = client.roundtrip(R"({"op":"solve","rho":0.7})");
  }
  obs::reset_log_for_test();

  const std::string qid = json_string_field(reply, "qid");
  ASSERT_FALSE(qid.empty()) << reply;
  ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;

  const std::string log = read_file(log_path);
  std::string slow_line;
  for (std::size_t start = 0; start < log.size();) {
    std::size_t nl = log.find('\n', start);
    if (nl == std::string::npos) nl = log.size();
    const std::string line = log.substr(start, nl - start);
    start = nl + 1;
    if (line.find("\"event\":\"daemon.slow_query\"") != std::string::npos) {
      slow_line = line;
    }
  }
  ASSERT_FALSE(slow_line.empty()) << log;
  // The record joins the wire reply via the qid and carries the solver
  // evidence a post-hoc investigation needs.
  EXPECT_NE(slow_line.find("\"qid\":\"" + qid + "\""), std::string::npos)
      << slow_line;
  EXPECT_NE(slow_line.find("\"disposition\":\"solved\""), std::string::npos)
      << slow_line;
  EXPECT_NE(slow_line.find("\"solver\":\"converged: logarithmic-reduction "),
            std::string::npos)
      << slow_line;
  // A certified answer that never escalated has an empty healing trail.
  EXPECT_NE(slow_line.find("\"trust\":\"certified\""), std::string::npos)
      << slow_line;
  EXPECT_NE(slow_line.find("\"trail\":\"\""), std::string::npos) << slow_line;
}

TEST(DaemonTelemetryTest, SlowQueryThresholdDisabledLogsNothing) {
  TempDir tmp;
  DaemonConfig config = base_config(tmp);
  config.engine.slow_query_seconds = 0.0;  // disabled
  const std::string log_path = tmp.path("daemon.log");
  obs::set_log_file(log_path);
  {
    ServerFixture fixture(std::move(config));
    ASSERT_TRUE(fixture.ready());
    TestClient client(fixture.server().config().socket_path);
    ASSERT_TRUE(client.connected());
    client.roundtrip(R"({"op":"solve","rho":0.7})");
  }
  obs::reset_log_for_test();
  EXPECT_EQ(read_file(log_path).find("daemon.slow_query"), std::string::npos);
}

}  // namespace
}  // namespace performa::daemon

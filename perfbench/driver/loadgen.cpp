#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.h"
#include "daemon/jsonio.h"
#include "grid.h"

namespace perfbench {

namespace {

// The session's fixed shape: a stationary mix offered open loop at a
// reference rate well below performad's capacity.
constexpr double kRefRate = 1000.0;       ///< requests per second
constexpr double kRefSeconds = 0.5;       ///< measured stream length
constexpr double kWarmupSeconds = 0.5;    ///< unreported stream before it
constexpr double kUniqueShare = 0.01;     ///< never-seen keys in the mix
constexpr double kDrainSeconds = 5.0;     ///< wait for replies after the last due time
constexpr int kRoundtrips = 400;          ///< closed-loop hits for the socket p50

enum Status : std::uint8_t {
  kPending,
  kOk,
  kOverloaded,
  kStale,
  kDeadline,
  kError,
  kTransport,
  kWrong,
};

struct Request {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::uint32_t kase = 0;
  bool unique = false;
  std::uint8_t op = 2;  ///< index into kHotOps; misses use "solve"
  Status status = kPending;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
};

std::string opt_str(const std::map<std::string, std::string>& o, const char* k) {
  const auto it = o.find(k);
  if (it == o.end()) throw std::invalid_argument(std::string("missing --") + k);
  return it->second;
}

double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(p / 100.0 * v.size())) - (p > 0 ? 1 : 0));
  return v[idx];
}

class LoadGen {
 public:
  LoadGen(const std::map<std::string, std::string>& o, std::uint64_t seed)
      : rng_(seed),
        hot_(grid("daemon_hot")),
        unique_(grid("daemon_unique")),
        hot_refs_(load_references(opt_str(o, "refs-dir") + "/daemon_hot.csv")),
        unique_refs_(
            load_references(opt_str(o, "refs-dir") + "/daemon_unique.csv")),
        unique_next_(static_cast<std::size_t>(seed) * 7919 % unique_.size()) {
    const std::string path = opt_str(o, "socket");
    const int n = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    for (int i = 0; i < n; ++i) {
      Conn c;
      c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
      if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                                sizeof addr) != 0) {
        const std::string why = std::strerror(errno);
        if (c.fd >= 0) ::close(c.fd);
        for (Conn& open : conns_) ::close(open.fd);
        throw std::runtime_error("cannot connect to " + path + ": " + why);
      }
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::move(c));
    }
  }

  ~LoadGen() {
    for (Conn& c : conns_) ::close(c.fd);
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  struct Phase {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  /// One request of the stationary mix: a never-seen key with
  /// probability kUniqueShare, else a uniform hot key and op.
  Request draw() {
    Request r;
    if (std::uniform_real_distribution<double>(0, 1)(rng_) < kUniqueShare) {
      r.unique = true;
      r.kase = static_cast<std::uint32_t>(unique_next_++ % unique_.size());
    } else {
      r.kase = static_cast<std::uint32_t>(
          std::uniform_int_distribution<std::size_t>(0, hot_.size() - 1)(rng_));
      r.op = static_cast<std::uint8_t>(std::uniform_int_distribution<int>(0, 2)(rng_));
    }
    return r;
  }

  /// Schedule `kRefRate * seconds` requests on a fixed grid and run them.
  Phase run_phase(double seconds) {
    Phase ph;
    ph.first = reqs_.size();
    ph.count = static_cast<std::size_t>(std::llround(kRefRate * seconds));
    const std::int64_t start = now_ns() + 2'000'000;
    const double gap_ns = 1e9 / kRefRate;
    for (std::size_t i = 0; i < ph.count; ++i) {
      Request r = draw();
      r.due = start + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
      reqs_.push_back(r);
    }
    std::size_t next = ph.first;
    const std::size_t end = ph.first + ph.count;
    const std::int64_t give_up =
        (ph.count ? reqs_[end - 1].due : start) +
        static_cast<std::int64_t>(kDrainSeconds * 1e9);
    std::vector<pollfd> fds(conns_.size());
    while (true) {
      std::int64_t now = now_ns();
      while (next < end && reqs_[next].due <= now) {
        send(next);
        ++next;
        now = now_ns();
      }
      if (next == end && outstanding_ == 0) break;
      if (next == end && now > give_up) {
        for (std::size_t i = ph.first; i < end; ++i) {
          if (reqs_[i].status == kPending) {
            reqs_[i].status = kTransport;
            --outstanding_;
          }
        }
        break;
      }
      // Spin instead of sleeping until the next due time: timer wake-ups
      // on a virtualized host are late by milliseconds, which would show
      // up as generator lag and inflate reply timestamps.
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = POLLIN;
        if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
        fds[i].revents = 0;
      }
      const int rc = ::poll(fds.data(), fds.size(), 0);
      if (rc < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents & POLLOUT) flush(conns_[i]);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) receive(conns_[i]);
      }
    }
    return ph;
  }

  /// Closed loop, one request in flight: the socket round trip of a hit.
  std::vector<double> roundtrips(int n) {
    std::vector<double> us;
    for (int i = 0; i < n; ++i) {
      const std::size_t idx = closed_loop(static_cast<std::uint32_t>(i % hot_.size()),
                                          static_cast<std::uint8_t>(i % 3));
      us.push_back(static_cast<double>(reqs_[idx].done - reqs_[idx].due) * 1e-3);
    }
    return us;
  }

  /// Every hot key with every op, one at a time; returns the failures.
  std::size_t warm() {
    std::size_t failed = 0;
    for (std::uint32_t k = 0; k < hot_.size(); ++k) {
      for (std::uint8_t op = 0; op < 3; ++op) {
        failed += reqs_[closed_loop(k, op)].status != kOk;
      }
    }
    return failed;
  }

  /// Outcome counts and latency from due time (p50/p99 over the answered
  /// requests) of a phase, with the generator's largest send lag.
  std::string phase_json(const Phase& ph) const {
    std::size_t counts[8] = {};
    std::vector<double> lat;
    double lag_max = 0.0;
    for (std::size_t i = ph.first; i < ph.first + ph.count; ++i) {
      const Request& r = reqs_[i];
      ++counts[r.status];
      lag_max = std::max(lag_max, static_cast<double>(r.sent - r.due) * 1e-6);
      if (r.status == kOk) lat.push_back(static_cast<double>(r.done - r.due) * 1e-6);
    }
    JsonOut o;
    o.integer("requests", ph.count);
    o.integer("ok", counts[kOk]);
    o.integer("overloaded", counts[kOverloaded]);
    o.integer("stale", counts[kStale]);
    o.integer("deadline", counts[kDeadline]);
    o.integer("error", counts[kError]);
    o.integer("transport", counts[kTransport]);
    o.integer("wrong", counts[kWrong]);
    o.num("p50_ms", percentile_of(lat, 50));
    o.num("p99_ms", percentile_of(lat, 99));
    o.num("lag_max_ms", lag_max);
    return o.finish();
  }

  const std::vector<Request>& requests() const { return reqs_; }
  std::vector<std::string> wrong_details;

 private:
  std::size_t closed_loop(std::uint32_t kase, std::uint8_t op) {
    Request r;
    r.kase = kase;
    r.op = op;
    r.due = now_ns();
    reqs_.push_back(r);
    const std::size_t idx = reqs_.size() - 1;
    send(idx);
    const std::int64_t give_up = now_ns() + 60'000'000'000;
    while (reqs_[idx].status == kPending && now_ns() < give_up) {
      pollfd p{conns_[idx % conns_.size()].fd, POLLIN, 0};
      ::poll(&p, 1, 100);
      receive(conns_[idx % conns_.size()]);
    }
    if (reqs_[idx].status == kPending) {
      reqs_[idx].status = kTransport;
      --outstanding_;
    }
    return idx;
  }

  void send(std::size_t idx) {
    Request& r = reqs_[idx];
    const ModelCase& c = r.unique ? unique_[r.kase] : hot_[r.kase];
    Conn& conn = conns_[idx % conns_.size()];
    conn.out += daemon_request(c, kHotOps[r.op], std::to_string(idx));
    conn.out += '\n';
    flush(conn);
    r.sent = now_ns();
    ++outstanding_;
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (w <= 0) break;
      c.out_off += static_cast<std::size_t>(w);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void receive(Conn& c) {
    char buf[65536];
    while (true) {
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n <= 0) break;
      c.in.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = c.in.find('\n', start);
      if (nl == std::string::npos) break;
      on_reply(c.in.substr(start, nl - start));
      start = nl + 1;
    }
    c.in.erase(0, start);
  }

  void on_reply(const std::string& line) {
    const std::int64_t t = now_ns();
    performa::daemon::JsonObject obj;
    std::string err;
    if (!performa::daemon::parse_json_object(line, obj, err)) return;
    const std::string id = obj.string("id", "");
    if (id.empty()) return;
    const std::size_t idx = std::stoul(id);
    if (idx >= reqs_.size() || reqs_[idx].status != kPending) return;
    Request& r = reqs_[idx];
    r.done = t;
    --outstanding_;
    const std::string outcome = obj.string("outcome", "missing");
    if (outcome == "overloaded") {
      r.status = kOverloaded;
    } else if (!obj.boolean("ok", false)) {
      r.status = outcome == "deadline-exceeded" ? kDeadline : kError;
    } else if (obj.boolean("stale", false)) {
      r.status = kStale;
    } else {
      r.status = check(r, obj) ? kOk : kWrong;
    }
  }

  bool check(const Request& r, const performa::daemon::JsonObject& obj) {
    const ModelCase& c = r.unique ? unique_[r.kase] : hot_[r.kase];
    const auto& refs = r.unique ? unique_refs_ : hot_refs_;
    const auto it = refs.find(c.id);
    std::string why;
    if (it == refs.end()) {
      why = "no reference";
    } else if (obj.string("trust", "") != "certified") {
      why = "trust " + obj.string("trust", "missing");
    } else if (r.op == 0) {
      if (!close_rel(obj.number("value", NAN), it->second.mean, kRefRelTol)) {
        why = "mean value";
      }
    } else if (!close_rel(obj.number("decay_rate", NAN), it->second.decay,
                          kRefRelTol)) {
      why = "decay_rate";
    } else if (r.op == 1 ? !close_rel(obj.number("value", NAN), it->second.tail,
                                      kRefRelTol)
                         : !close_rel(obj.number("mean_queue_length", NAN),
                                      it->second.mean, kRefRelTol)) {
      why = r.op == 1 ? "tail value" : "mean_queue_length";
    }
    if (why.empty()) return true;
    if (wrong_details.size() < 10) wrong_details.push_back(c.id + ": " + why);
    return false;
  }

  std::mt19937_64 rng_;
  std::vector<ModelCase> hot_;
  std::vector<ModelCase> unique_;
  std::map<std::string, Reference> hot_refs_;
  std::map<std::string, Reference> unique_refs_;
  std::size_t unique_next_;
  std::vector<Conn> conns_;
  std::vector<Request> reqs_;
  std::size_t outstanding_ = 0;
};

}  // namespace

int run_loadgen(const std::map<std::string, std::string>& o) {
  const std::uint64_t seed =
      std::strtoull(o.count("seed") ? o.at("seed").c_str() : "1", nullptr, 10);
  const std::string workdir = o.count("workdir") ? o.at("workdir") : ".";

  LoadGen gen(o, seed);
  std::printf("ready\n");
  std::fflush(stdout);
  JsonOut out;
  if (o.count("warm-only")) {
    // Closed loop over every hot key and op: the first touch of each key
    // is a cold solve that the daemon caches and journals.
    out.integer("warm_failed", gen.warm());
    std::printf("%s\n", out.finish().c_str());
    return 0;
  }
  out.num("socket_p50_us", percentile_of(gen.roundtrips(kRoundtrips), 50));
  gen.run_phase(kWarmupSeconds);
  const auto ref = gen.run_phase(kRefSeconds);
  out.raw("reference", gen.phase_json(ref));

  // One span per reference request from its due time to its reply, with
  // the daemon round trip (send -> reply) as its child.
  Tracer& t = tracer();
  const auto& reqs = gen.requests();
  for (std::size_t i = ref.first; i < ref.first + ref.count; ++i) {
    if (reqs[i].done == 0) continue;
    const int parent = static_cast<int>(t.spans.size());
    t.spans.push_back({"request", reqs[i].due, reqs[i].done, -1,
                       static_cast<std::uint32_t>(i)});
    t.spans.push_back({"daemon.roundtrip", reqs[i].sent, reqs[i].done, parent,
                       static_cast<std::uint32_t>(i)});
  }
  const std::string path = workdir + "/trace-daemon-" + std::to_string(seed) + ".jsonl";
  t.write(path);
  out.str("trace_file", path);

  std::string wrong = "[";
  for (std::size_t i = 0; i < gen.wrong_details.size(); ++i) {
    if (i) wrong += ',';
    wrong += json_string(gen.wrong_details[i]);
  }
  out.raw("wrong_details", wrong + "]");
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

}  // namespace perfbench

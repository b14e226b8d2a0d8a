#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/log.h"

namespace performa::obs {

namespace detail {
std::atomic<bool> g_flight_on{false};
}  // namespace detail

namespace {

constexpr std::size_t kRingFirstSlot = 2;  // 0 = header, 1 = crash marker
constexpr std::size_t kRingSlots = kFlightSlots - kRingFirstSlot;
constexpr std::size_t kFileBytes = kFlightSlots * kFlightSlotBytes;

// The mapping pointer is written under g_mutex before g_flight_on is
// set and read by recorders after loading g_flight_on; the handlers
// read it directly (they may fire at any time, but a non-null value is
// always a valid mapping -- we never unmap while the flag is up).
char* g_base = nullptr;
std::atomic<std::uint64_t> g_next{0};
std::mutex g_mutex;
std::string g_path;
bool g_handlers_installed = false;

// Async-signal-safe unsigned decimal formatting; returns chars written.
std::size_t format_u64(char* out, std::uint64_t v) noexcept {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

// Fill one slot with `len` bytes of text and NUL padding.
void write_slot(std::size_t slot, const char* data, std::size_t len) noexcept {
  char* p = g_base + slot * kFlightSlotBytes;
  if (len > kFlightSlotBytes - 1) len = kFlightSlotBytes - 1;
  std::memcpy(p, data, len);
  std::memset(p + len, 0, kFlightSlotBytes - len);
}

// Fatal-signal handler: stamp the crash marker (signal number + the
// faulting thread's query id) using only memcpy and hand-rolled
// formatting, then re-raise with the default disposition (SA_RESETHAND
// already restored it) so wait status and core dumps are untouched.
void crash_handler(int sig) noexcept {
  char* base = g_base;
  if (base != nullptr && flight_enabled()) {
    char line[kFlightSlotBytes];
    std::size_t n = 0;
    const char* head = "{\"event\":\"crash\",\"signal\":";
    std::memcpy(line + n, head, std::strlen(head));
    n += std::strlen(head);
    n += format_u64(line + n, static_cast<std::uint64_t>(sig));
    const char* mid = ",\"pid\":";
    std::memcpy(line + n, mid, std::strlen(mid));
    n += std::strlen(mid);
    n += format_u64(line + n, static_cast<std::uint64_t>(::getpid()));
    const char* qid = current_query_id_cstr();
    const std::size_t qlen = std::strlen(qid);
    if (qlen > 0 && n + qlen + 16 < sizeof line) {
      const char* qhead = ",\"qid\":\"";
      std::memcpy(line + n, qhead, std::strlen(qhead));
      n += std::strlen(qhead);
      std::memcpy(line + n, qid, qlen);
      n += qlen;
      line[n++] = '"';
    }
    line[n++] = '}';
    write_slot(1, line, n);
  }
  ::raise(sig);
}

void install_crash_handlers() {
  if (g_handlers_installed) return;
  g_handlers_installed = true;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sa.sa_flags = SA_RESETHAND;
  ::sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

// Detach the current mapping (caller holds g_mutex).
void detach_locked(bool keep_file) noexcept {
  detail::g_flight_on.store(false, std::memory_order_relaxed);
  if (g_base != nullptr) {
    ::munmap(g_base, kFileBytes);
    g_base = nullptr;
  }
  if (!keep_file && !g_path.empty()) ::unlink(g_path.c_str());
  g_path.clear();
}

}  // namespace

bool init_flight(const std::string& path_prefix) {
  std::lock_guard<std::mutex> lock(g_mutex);
  detach_locked(/*keep_file=*/false);
  const std::string path =
      path_prefix + ".flight." + std::to_string(::getpid());
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (::ftruncate(fd, static_cast<off_t>(kFileBytes)) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return false;
  }
  void* map = ::mmap(nullptr, kFileBytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    ::unlink(path.c_str());
    return false;
  }
  g_base = static_cast<char*>(map);
  g_path = path;
  g_next.store(0, std::memory_order_relaxed);

  char header[kFlightSlotBytes];
  const int n = std::snprintf(
      header, sizeof header,
      "{\"event\":\"flight_header\",\"version\":1,\"pid\":%d"
      ",\"slots\":%zu,\"slot_bytes\":%zu}",
      static_cast<int>(::getpid()), kFlightSlots, kFlightSlotBytes);
  write_slot(0, header, static_cast<std::size_t>(n));

  install_crash_handlers();
  detail::g_flight_on.store(true, std::memory_order_relaxed);
  return true;
}

bool init_flight_from_env() {
  if (flight_enabled()) return true;
  const char* prefix = std::getenv("PERFORMA_FLIGHT");
  if (prefix == nullptr || prefix[0] == '\0') return false;
  return init_flight(prefix);
}

void flight_record(const char* data, std::size_t len) noexcept {
  if (!flight_enabled()) return;
  char* base = g_base;
  if (base == nullptr) return;
  while (len > 0 && (data[len - 1] == '\n' || data[len - 1] == '\0')) --len;
  const std::uint64_t seq = g_next.fetch_add(1, std::memory_order_relaxed);
  write_slot(kRingFirstSlot + static_cast<std::size_t>(seq % kRingSlots),
             data, len);
}

std::string flight_path() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_path;
}

void disable_flight(bool keep_file) noexcept {
  std::lock_guard<std::mutex> lock(g_mutex);
  detach_locked(keep_file);
}

}  // namespace performa::obs

// Structured NDJSON logging: one JSON object per line, leveled,
// rate-limited per call site, fork-safe, and feeding the crash flight
// recorder.
//
// Call sites use the PERFORMA_LOG macro:
//
//   PERFORMA_LOG(kInfo, "daemon.start")
//       .kv("socket", config.socket_path)
//       .kv("workers", config.workers);
//
// Cost model mirrors spans: a site below the active level costs one
// relaxed atomic load and a predictable branch (~1 ns, bench-gated);
// PERFORMA_OBS_DISABLED compiles every site out entirely. An admitted
// line is rendered into a local buffer and written with a single
// write(2), so concurrent writers never interleave mid-line.
//
// Rate limiting is per call site: each PERFORMA_LOG expansion owns a
// function-local static LogSite holding a token bucket (burst
// LogSite::kBurst, refill LogSite::kRefillPerSec tokens/s). A hot
// error loop therefore cannot drown the log; the next admitted line
// from that site carries `"suppressed":N` so nothing vanishes
// silently.
//
// Fork boundary: like the trace sink, a forked worker must not share
// the parent's log fd offset bookkeeping. obs::ForkHandoff (fork.h)
// points the child at a private fragment file and appends its complete
// lines back to the parent sink on reap, dropping a torn tail.
//
// Every line automatically carries ts (unix seconds), level, event,
// pid, tid, and -- when a QueryIdScope is active on the thread -- the
// query id, which is how daemon logs join against wire replies, slow
// query records, spans and flight-recorder dumps.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace performa::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* log_level_name(LogLevel level) noexcept;

namespace detail {
extern std::atomic<int> g_log_level;  // minimum admitted level
}  // namespace detail

/// True when `level` is at or above the active threshold. One relaxed
/// atomic load: this is the disabled-path cost of a log site.
inline bool log_enabled(LogLevel level) noexcept {
#if !defined(PERFORMA_OBS_DISABLED)
  return static_cast<int>(level) >=
         detail::g_log_level.load(std::memory_order_relaxed);
#else
  (void)level;
  return false;
#endif
}

/// Set the minimum admitted level (default kInfo).
void set_log_level(LogLevel level);

/// Route log lines to `path` (O_APPEND; a single write(2) per line).
/// Throws std::runtime_error when the file cannot be opened. An empty
/// path routes back to stderr (the default sink).
void set_log_file(const std::string& path);

/// Path of the installed file sink; empty when logging to stderr.
/// ForkHandoff derives fragment paths from this.
const std::string& log_file_path();

/// Honor $PERFORMA_LOG (sink path) and $PERFORMA_LOG_LEVEL
/// (debug|info|warn|error). Returns true when a file sink is (now)
/// configured.
bool init_log_from_env();

/// Close any file sink and return to stderr at the default level
/// (tests).
void reset_log_for_test();

/// Per-call-site token bucket. Zero-initialized statics start full.
struct LogSite {
  static constexpr std::int64_t kBurst = 16;
  static constexpr std::int64_t kRefillPerSec = 4;

  std::atomic<std::int64_t> tokens_milli{kBurst * 1000};
  std::atomic<std::int64_t> last_refill_ns{0};
  std::atomic<std::uint64_t> suppressed{0};

  /// Take one token; counts the line as suppressed when none are left.
  bool admit() noexcept;
  /// Suppressed-line count since the last admitted line (and reset).
  std::uint64_t take_suppressed() noexcept {
    return suppressed.exchange(0, std::memory_order_relaxed);
  }
};

/// One log line under construction. The destructor renders and emits
/// it; `kv` chains append fields. Only ever constructed by the macro
/// after level + rate-limit admission.
class LogLine {
 public:
  LogLine(LogLevel level, const char* event, LogSite* site);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  LogLine& kv(const char* key, const std::string& value);
  LogLine& kv(const char* key, const char* value);
  LogLine& kv(const char* key, double value);
  LogLine& kv(const char* key, std::uint64_t value);
  LogLine& kv(const char* key, std::int64_t value);
  LogLine& kv(const char* key, int value) {
    return kv(key, static_cast<std::int64_t>(value));
  }
  LogLine& kv(const char* key, bool value);

 private:
  std::string buf_;
  std::size_t header_len_ = 0;  ///< end of ts..qid prefix (flight fallback)
};

namespace detail {
/// Level gate + site admission in one call; returns the site when the
/// line should be emitted, nullptr otherwise. `make_site` is only
/// invoked (constructing the static) once the level gate passes.
template <typename MakeSite>
LogSite* admit_site(LogLevel level, MakeSite make_site) noexcept {
  if (!log_enabled(level)) return nullptr;
  LogSite* site = make_site();
  return site->admit() ? site : nullptr;
}
}  // namespace detail

/// Statement-shaped macro: expands to an if/else so the disabled path
/// is a single load+branch, with the LogLine temporary living only in
/// the admitted branch. Usable anywhere a statement is; the `.kv`
/// chain hangs off the expression.
#if defined(PERFORMA_OBS_DISABLED)
#define PERFORMA_LOG(level, event)                        \
  if (true) {                                             \
  } else                                                  \
    ::performa::obs::LogLine(::performa::obs::LogLevel::level, event, nullptr)
#else
#define PERFORMA_LOG(level, event)                                          \
  if (::performa::obs::LogSite* performa_obs_log_site_ =                    \
          ::performa::obs::detail::admit_site(                              \
              ::performa::obs::LogLevel::level, []() noexcept {             \
                static ::performa::obs::LogSite performa_obs_site_;         \
                return &performa_obs_site_;                                 \
              });                                                           \
      performa_obs_log_site_ == nullptr) {                                  \
  } else                                                                    \
    ::performa::obs::LogLine(::performa::obs::LogLevel::level, event,       \
                             performa_obs_log_site_)
#endif

// ---------------------------------------------------------------------------
// Query identity: a per-request id minted at daemon admission (or by
// perfctl at startup), carried in a thread-local scope alongside
// DeadlineScope, stamped onto every log line, span, SolveReport and
// wire reply produced while the scope is active.

/// Mint a process-unique query id: "q-<pid>-<seq>".
std::string mint_query_id();

/// The query id active on this thread; empty outside any scope.
const std::string& current_query_id() noexcept;

/// NUL-terminated view of the active query id kept in a fixed
/// thread-local buffer -- readable from a signal handler on the
/// faulting thread without touching the allocator.
const char* current_query_id_cstr() noexcept;

/// RAII thread-local query-id scope; nests (restores the previous id).
class QueryIdScope {
 public:
  explicit QueryIdScope(std::string qid);
  ~QueryIdScope();
  QueryIdScope(const QueryIdScope&) = delete;
  QueryIdScope& operator=(const QueryIdScope&) = delete;

 private:
  std::string prev_;
};

}  // namespace performa::obs

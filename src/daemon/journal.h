// Append-only cache journal: performad's crash-only persistence.
//
// Every solution the daemon computes is serialized into one
// self-checksummed record (the runner's checkpoint codec: CRC-32 over
// the payload, hex-float numbers for bit-exact round-trips) and
// appended to the journal through an obs::AppendFile: one write(2) on an
// O_APPEND fd. A whole record in one syscall cannot be torn by SIGKILL
// -- the kernel either has the bytes or it does not -- so the only
// window left is power loss before the page reaches disk, which the
// `sync` flag (fsync per append, the daemon's default) closes.
//
//   performad-cache v1
//   P <crc32-hex> <seq>|<model-key>|ok|1|||<metrics>
//
// <metrics> carries the solution itself: `m` (phase dimension), `nu`,
// `av`, `u`, `lam` (derived scalars), then the R matrix row-major as
// `r0..r{m*m-1}` and the boundary vectors as `a0..` (pi0) / `b0..`
// (pi1).
//
// Recovery is load-and-validate: records with a bad CRC are dropped
// (counted), later records for the same key win (a re-solved model
// supersedes its old record -- deliberately *unlike* the sweep
// checkpoint's v2 duplicate rejection, because a cache legitimately
// rewrites entries), and each surviving triple is pushed through
// QbdSolution's validating rehydration constructor, so a record that
// is well-formed but numerically nonsensical is also dropped rather
// than served. A SIGKILLed daemon restarted on the same journal starts
// with its cache warm.
//
// The journal only grows; compact() rewrites it from a cache snapshot
// via write-temp (through a second AppendFile), fsync, rename and a
// directory fsync, so even a crash mid-compaction leaves either the old
// or the new journal, never a hybrid.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "daemon/cache.h"
#include "obs/append_file.h"

namespace performa::daemon {

inline constexpr int kJournalVersion = 1;

/// Serialize one cache entry into a checkpoint-codec record line
/// (without trailing newline). Exposed for tests.
std::string encode_journal_record(const std::string& key,
                                  const CachedSolution& entry,
                                  std::uint64_t seq);

/// Inverse of encode_journal_record: CRC check, field parse, and
/// QbdSolution rehydration. Returns false on any damage.
bool decode_journal_record(const std::string& line, std::string& key,
                           CachedSolution& entry);

/// Result of loading a journal from disk.
struct JournalLoad {
  /// Latest valid record per key, in journal order of first appearance.
  std::vector<std::pair<std::string, CachedSolution>> entries;
  std::size_t records = 0;          ///< valid records seen (incl. superseded)
  std::size_t dropped_records = 0;  ///< CRC/parse/rehydration failures
};

/// Writer handle for the append-only journal file.
class CacheJournal {
 public:
  /// Open (creating with a header when absent) for appending. With
  /// `sync`, every append is fsync'd. Throws std::runtime_error on I/O
  /// failure, InvalidArgument when an existing file has a foreign
  /// header.
  CacheJournal(std::string path, bool sync);

  /// Append one entry (one record, one write syscall). I/O errors
  /// throw; the in-memory cache is the source of truth, so a failed
  /// append degrades durability, not correctness.
  void append(const std::string& key, const CachedSolution& entry);

  /// Rewrite the journal to hold exactly `entries` (a cache snapshot),
  /// atomically via temp file + rename. The journal is reopened on the
  /// new file.
  void compact(
      const std::vector<std::pair<std::string, CachedSolution>>& entries);

  const std::string& path() const noexcept { return path_; }
  std::uint64_t appended() const noexcept { return seq_; }

 private:
  std::string path_;
  bool sync_;
  obs::AppendFile file_;
  std::uint64_t seq_ = 0;
};

/// Load and validate a journal. A missing file yields an empty load
/// (first boot); a present file with a foreign header throws
/// InvalidArgument.
JournalLoad load_journal(const std::string& path);

}  // namespace performa::daemon

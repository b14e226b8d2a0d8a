// The one way a record reaches disk without tearing. The sweep
// checkpoint, performad's cache journal, the trace file and the log file
// are all append-only text files: an optional header line, then one
// record per line. Each writes through an AppendFile.
//
// The file is opened O_APPEND and every append() is a single write(2).
// The kernel applies an O_APPEND write whole, at the end of the file,
// even when several processes share the file (a forked worker keeps the
// inherited fd). A SIGKILL therefore lands between two records, never
// inside one. Only a short write (ENOSPC) can leave a partial record,
// and every reader guards against that with a CRC or a parse check.
// sync() adds fsync, which also covers power loss.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace performa::obs {

/// write(2) all of `bytes` to `fd`, resuming across EINTR and partial
/// writes. Throws std::runtime_error naming `what` on failure.
void write_all(int fd, std::string_view bytes, std::string_view what);

/// An append-only record file, open for the life of the object. The fd
/// is close-on-exec.
class AppendFile {
 public:
  /// Open `path` for appending, creating it. With `truncate` the old
  /// contents are dropped first. When the file is then empty, `header`
  /// plus a newline is written as its first line (an empty header
  /// writes nothing). Throws std::runtime_error when the file cannot be
  /// opened or the header cannot be written.
  AppendFile(const std::string& path, const std::string& header,
             bool truncate = false);
  ~AppendFile();
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Append `bytes` (whole records, newline-terminated) with one
  /// write(2). Throws std::runtime_error on failure.
  void append(std::string_view bytes) const;

  /// fsync the file. Throws std::runtime_error on failure.
  void sync() const;

 private:
  std::string path_;
  int fd_ = -1;
};

/// fsync the directory holding `path`, so a file created or renamed
/// there survives power loss. Best effort: errors are ignored.
void sync_parent_dir(const std::string& path) noexcept;

/// A record file as read back: its first line and the non-empty lines
/// after it, newline (and a trailing '\r') stripped. A last line with no
/// newline, a record torn by a short write, is returned too; the
/// caller's checksum rejects it.
struct RecordFile {
  std::string header;                ///< empty for an empty file
  std::vector<std::string> records;  ///< in file order
};

/// Read `path`, of any line length. Returns nullopt when it cannot be
/// opened (absent). With `header_only` no record is read.
std::optional<RecordFile> read_record_file(const std::string& path,
                                           bool header_only = false);

}  // namespace performa::obs

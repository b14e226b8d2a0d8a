#include "obs/append_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace performa::obs {

namespace {

[[noreturn]] void fail(const char* op, std::string_view what) {
  throw std::runtime_error(std::string("obs: cannot ") + op + " '" +
                           std::string(what) + "': " + std::strerror(errno));
}

}  // namespace

void write_all(int fd, std::string_view bytes, std::string_view what) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write", what);
    }
    off += static_cast<std::size_t>(n);
  }
}

AppendFile::AppendFile(const std::string& path, const std::string& header,
                       bool truncate)
    : path_(path) {
  const int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC |
                    (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) fail("open", path);
  struct ::stat st {};
  if (!header.empty() && ::fstat(fd_, &st) == 0 && st.st_size == 0) {
    try {
      append(header + "\n");
    } catch (...) {
      ::close(fd_);
      throw;
    }
  }
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

AppendFile::AppendFile(AppendFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(std::exchange(other.fd_, -1)) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void AppendFile::append(std::string_view bytes) const {
  write_all(fd_, bytes, path_);
}

void AppendFile::sync() const {
  if (::fsync(fd_) != 0) fail("fsync", path_);
}

void sync_parent_dir(const std::string& path) noexcept {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

std::optional<RecordFile> read_record_file(const std::string& path,
                                           bool header_only) {
  // Plain read(2): a first std::ifstream costs a locale set-up that
  // shows in the start-up time of a resumed sweep.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string text;
  char buf[1 << 16];
  while (!(header_only && text.find('\n') != std::string::npos)) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  RecordFile file;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::size_t len = end - start;
    if (len > 0 && text[end - 1] == '\r') --len;
    if (start == 0) {
      file.header = text.substr(0, len);
      if (header_only) break;
    } else if (len > 0) {
      file.records.push_back(text.substr(start, len));
    }
    start = end + 1;
  }
  return file;
}

}  // namespace performa::obs

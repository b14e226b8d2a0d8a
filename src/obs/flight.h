// Crash flight recorder: a fixed-size ring of recent log/span events
// in a mmap(MAP_SHARED) file, so the last ~4k events survive any kind
// of death -- including SIGKILL, which no handler can observe.
//
// Why mmap instead of a handler that dumps a heap ring: dirty pages of
// a MAP_SHARED file mapping live in the page cache, which the kernel
// writes back regardless of how the process died. Every flight_record
// is therefore already "on disk" the moment the memcpy retires; a
// SIGKILLed daemon leaves a readable black box with zero code running
// at death. Catchable fatal signals (SIGSEGV/SIGBUS/SIGFPE/SIGILL/
// SIGABRT) additionally stamp a crash-marker slot -- the handler only
// formats integers by hand and memcpys into the mapping, all
// async-signal-safe -- then re-raise with default disposition so exit
// status and core dumps are unchanged.
//
// File layout (<prefix>.flight.<pid>, 1 MiB): 4096 slots x 256 bytes.
// Slot 0 is a header record, slot 1 the crash marker (all-NUL until a
// fatal signal), slots 2.. a ring claimed by one atomic fetch_add per
// event. Each slot holds one NUL-padded JSON object; a reader splits
// on NULs and keeps the chunks that parse, so a torn slot (writer
// preempted mid-memcpy, or overwritten after wrap) is skipped, never
// misread.
//
// The file is unlinked on clean shutdown (disable_flight): like the
// daemon journal, a flight file that exists is evidence of a crash.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

namespace performa::obs {

namespace detail {
extern std::atomic<bool> g_flight_on;
}  // namespace detail

inline bool flight_enabled() noexcept {
  return detail::g_flight_on.load(std::memory_order_relaxed);
}

constexpr std::size_t kFlightSlotBytes = 256;
constexpr std::size_t kFlightSlots = 4096;  // header + marker + ring

/// Map <prefix>.flight.<pid> and start recording; also installs the
/// fatal-signal handlers. Returns false (disabled) when the file
/// cannot be created. Replaces any previously active flight file
/// (which is unlinked).
bool init_flight(const std::string& path_prefix);

/// Honor $PERFORMA_FLIGHT as the path prefix.
bool init_flight_from_env();

/// Append one event to the ring, truncated to the slot size. Safe from
/// any thread; a no-op while disabled.
void flight_record(const char* data, std::size_t len) noexcept;

/// Path of the active flight file; empty while disabled.
std::string flight_path();

/// Stop recording and unlink the file (clean shutdown: no crash, no
/// evidence). keep_file=true detaches without unlinking.
void disable_flight(bool keep_file = false) noexcept;

}  // namespace performa::obs

// Versioned, checksummed, append-only sweep checkpoints.
//
// A checkpoint is a text file: one header line declaring the format
// version and the sweep name, then one self-checksummed record per
// completed point. Each record is appended with one write(2) as its
// point finishes (obs::AppendFile), so a SIGKILL lands between records.
// Only a short write (disk full) can leave a partial final record,
// which the loader detects via its CRC-32 and drops, keeping every
// earlier point. Metric values are
// stored as C99 hex-floats, so a resumed sweep reproduces prior numbers
// bit-exactly.
//
//   performa-checkpoint v2 <sweep-name>
//   P <crc32-hex> <index>|<id>|<outcome>|<attempts>|<message>|<rng>|<metrics>
//
// <metrics> is `name=hexfloat` pairs joined with ','. <rng> is written
// empty and ignored on read (older writers stored a simulator RNG state
// there, so their files still load). The CRC covers everything after the
// "P <crc32-hex> " prefix. Golden-result files use the same format: a
// verified checkpoint *is* a golden file.
//
// Version history (record format is identical in both):
//   v1  written by the sequential runner: records land in request
//       order, and later records for the same id silently supersede
//       earlier ones.
//   v2  written by the parallel scheduler: records may land in any
//       order (completion order under -j N), so resume is keyed purely
//       by point id. A record may supersede an earlier *degraded*
//       record for the same id (that is how resumed retries are
//       persisted), but a second record for an id that already has an
//       ok record is rejected at load time -- two ok records for one
//       point means two writers shared the file, and trusting either
//       silently would be a correctness bug.
// The loader reads both versions; new checkpoints are created as v2.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/append_file.h"
#include "runner/outcome.h"

namespace performa::runner {

inline constexpr int kCheckpointVersion = 2;
inline constexpr int kMinCheckpointVersion = 1;

/// One completed (or degraded) experiment point.
struct CheckpointPoint {
  std::size_t index = 0;   ///< position in the sweep's point list
  std::string id;          ///< stable point identifier, e.g. "rho=0.35"
  Outcome outcome = Outcome::kOk;
  unsigned attempts = 1;   ///< executions consumed (retries included)
  std::string message;     ///< diagnostics for degraded points
  /// Metric values in emission order; empty for degraded points.
  std::vector<std::pair<std::string, double>> metrics;

  /// Value of one metric; NaN when absent.
  double metric(const std::string& name) const noexcept;
};

/// A loaded checkpoint file.
struct SweepCheckpoint {
  int version = kCheckpointVersion;
  std::string sweep_name;
  std::vector<CheckpointPoint> points;   ///< in file order, duplicates kept
  std::size_t dropped_records = 0;       ///< corrupt/truncated lines skipped

  /// Latest record for `id` (appends win), or nullptr.
  const CheckpointPoint* find(const std::string& id) const noexcept;
};

/// CRC-32 (IEEE 802.3, reflected) of `data`.
std::uint32_t crc32(std::string_view data);

/// Open `path` for appending point records, creating it with a fresh v2
/// header when it is absent or empty. An existing header must carry a
/// supported version and this sweep name (resuming a different sweep
/// into the file is almost certainly a mistake). Throws InvalidArgument
/// on mismatch, std::runtime_error on I/O failure.
obs::AppendFile open_checkpoint(const std::string& path,
                                const std::string& sweep_name);

/// Append one point record to a file from open_checkpoint. With `sync`
/// the record is also fsync'd before the call returns: a write only
/// moves bytes into the kernel, so a *power-loss*-style kill can
/// otherwise drop an arbitrary suffix of written records -- or, worse,
/// persist a torn page whose prefix happens to parse. fsync closes that
/// window at the cost of one disk round-trip per record.
void append_point(const obs::AppendFile& file, const CheckpointPoint& point,
                  bool sync = false);

/// Load a v1 or v2 checkpoint. Corrupt or truncated records are counted
/// in dropped_records and skipped; a bad header throws InvalidArgument.
/// In a v2 file a record for an id that already has an ok record throws
/// InvalidArgument (duplicate writer); v1 keeps its legacy appends-win
/// semantics.
SweepCheckpoint load_checkpoint(const std::string& path);

// Record codec, exposed for tests.
std::string encode_point(const CheckpointPoint& point);
bool decode_point(const std::string& line, CheckpointPoint& out);

}  // namespace performa::runner

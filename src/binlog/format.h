#ifndef REPLIDB_BINLOG_FORMAT_H_
#define REPLIDB_BINLOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/rdbms.h"
#include "middleware/common.h"

namespace replidb::binlog {

/// \brief On-disk record framing for the segmented binlog.
///
/// Every record is framed as
///
///   +-------+------+-------+---------+---------+-----------------+
///   | magic | type | flags | len u32 | crc u32 | payload (len B) |
///   |  u32  |  u8  |  u8   |         |         |                 |
///   +-------+------+-------+---------+---------+-----------------+
///
/// all integers little-endian. The CRC covers type, flags, len and the
/// payload — a torn tail, a bit flip, or a partially-fsynced record all
/// fail the check, and recovery truncates the log at the first bad frame
/// (it must never apply garbage; see DESIGN.md "Durability & recovery").

/// CRC-32 (IEEE 802.3 polynomial, reflected). Deterministic and
/// hash-seed-independent: segment bytes must be byte-identical across
/// runs for the determinism harness to compare them. `crc` continues a
/// previous result: Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

enum class RecordType : uint8_t {
  kEntry = 1,       ///< One middleware::ReplicationEntry.
  kCheckpoint = 2,  ///< Engine snapshot + per-table digests.
};

/// Fixed frame header size in bytes (magic+type+flags+len+crc).
inline constexpr size_t kRecordHeaderBytes = 14;
inline constexpr uint32_t kRecordMagic = 0x52424c47;  // "RBLG".

/// Appends one framed record to `out`.
void PutRecord(RecordType type, std::string_view payload, std::string* out);

/// A parsed frame pointing into the caller's buffer.
struct RecordView {
  RecordType type = RecordType::kEntry;
  std::string_view payload;
  size_t frame_bytes = 0;  ///< Header + payload: offset of the next record.
};

/// Parses the record at the head of `data`. Any truncation, bad magic,
/// unknown type or CRC mismatch returns an error status — the caller
/// treats that offset as the end of valid log.
Status ParseRecord(std::string_view data, RecordView* out);

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Serializes one replication entry (delegates to the ship wire codec, so
/// log bytes and wire bytes share one deterministic format).
std::string EncodeEntryPayload(const middleware::ReplicationEntry& entry);
Result<middleware::ReplicationEntry> DecodeEntryPayload(
    std::string_view payload);

/// \brief A checkpoint record: everything needed to rebuild the engine at
/// `version` without replaying the log prefix. Digests are recorded at
/// capture time so recovery can verify the restored state byte-for-byte
/// before trusting it (the paper's silent-divergence gap, §4).
struct CheckpointRecord {
  middleware::GlobalVersion version = 0;
  /// Per-table digests of the engine at `version`, sorted by table name.
  std::vector<std::pair<std::string, uint64_t>> digests;
  /// Full engine image (metadata + sequences included: a checkpoint that
  /// forgets users or auto-increment counters rebuilds a diverged replica,
  /// §4.1.5 / §4.2.3).
  engine::BackupImage image;
  int64_t taken_at_us = 0;  ///< Virtual capture time (checkpoint age).
};

std::string EncodeCheckpointPayload(const CheckpointRecord& cp);
Result<CheckpointRecord> DecodeCheckpointPayload(std::string_view payload);

}  // namespace replidb::binlog

#endif  // REPLIDB_BINLOG_FORMAT_H_

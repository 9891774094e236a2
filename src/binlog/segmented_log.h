#ifndef REPLIDB_BINLOG_SEGMENTED_LOG_H_
#define REPLIDB_BINLOG_SEGMENTED_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "common/result.h"
#include "common/status.h"
#include "middleware/common.h"

namespace replidb::binlog {

struct SegmentedLogOptions {
  /// Active segment rolls over once its size reaches this (a record is
  /// never split: the segment holding the boundary record may exceed it).
  int64_t segment_max_bytes = 256 * 1024;
  /// fsync after every record (true) or only at rollover/checkpoint
  /// (false — bigger torn-tail window after a crash, cheaper appends).
  bool sync_every_append = true;
};

/// Byte address of a record: segment number + offset of its frame.
struct LogPosition {
  uint64_t segment = 0;
  uint64_t offset = 0;
};

/// One entry record's place in its segment: the running max of entry
/// versions through this record, and the record's frame offset.
struct EntryFrame {
  middleware::GlobalVersion max_version = 0;
  uint64_t offset = 0;
};

/// Bookkeeping for one segment (the bl_ctx-style index/offset pair: the
/// version span lets truncation and cursor seeks skip whole segments
/// without reading them, and the entry index lets a cursor seek inside
/// one).
struct SegmentInfo {
  uint64_t segment = 0;
  middleware::GlobalVersion base_version = 0;  ///< First entry version, 0 = none.
  middleware::GlobalVersion last_version = 0;  ///< Highest entry version.
  uint64_t bytes = 0;
  uint64_t records = 0;
  bool has_checkpoint = false;
  /// One per entry record, in log order. max_version never decreases, so
  /// a binary search finds the first frame that can hold a version above
  /// any bound.
  std::vector<EntryFrame> entries;
};

/// Point-in-time log health (SHOW REPLICA STATUS / Prometheus).
struct BinlogStats {
  uint64_t segments = 0;
  uint64_t active_segment_bytes = 0;
  uint64_t total_bytes = 0;
  uint64_t records = 0;
  middleware::GlobalVersion last_version = 0;
  middleware::GlobalVersion checkpoint_version = 0;
  int64_t checkpoint_at_us = -1;  ///< -1 = no checkpoint yet.
  middleware::GlobalVersion truncate_watermark = 0;
  /// Frames parsed since construction by cursors, ReadAt and Recover: a
  /// deterministic measure of read work.
  uint64_t frames_read = 0;
};

/// What Recover() found on disk.
struct RecoveryInfo {
  middleware::GlobalVersion last_version = 0;
  uint64_t records = 0;
  uint64_t segments = 0;
  /// Bytes discarded because the first bad frame (CRC / torn tail) ended
  /// the valid log there.
  uint64_t truncated_bytes = 0;
  /// Segments after the truncation point, dropped wholesale.
  uint64_t dropped_segments = 0;
  bool have_checkpoint = false;
  CheckpointRecord checkpoint;  ///< Latest valid checkpoint, if any.
  /// Apply watermark persisted via PersistWatermark (0 when absent).
  middleware::GlobalVersion meta_watermark = 0;
};

class SegmentedBinlog;

/// \brief Forward iterator over entry records with version > `after`,
/// decoding frames straight from the LogStore segment bytes (shipping and
/// resync read the log through this — never through in-memory vectors).
/// Construction seeks through the segment and entry indexes, so a cursor
/// parses only the frames from the first one that can hold a version
/// above `after`.
class LogCursor {
 public:
  /// Advances to the next entry; false at end-of-log or on a decode error
  /// (check status()). Checkpoint records are skipped.
  bool Next(middleware::ReplicationEntry* out);
  const Status& status() const { return status_; }

 private:
  friend class SegmentedBinlog;
  LogCursor(const SegmentedBinlog* log, middleware::GlobalVersion after);

  const SegmentedBinlog* log_ = nullptr;
  middleware::GlobalVersion after_ = 0;
  size_t segment_index_ = 0;  ///< Index into log_->segments_.
  uint64_t offset_ = 0;       ///< Next frame in the current segment.
  std::string buffer_;        ///< Current segment's bytes.
  bool buffer_valid_ = false;
  Status status_;
};

/// \brief A segmented, checksummed, append-only replication log over a
/// LogStore: rollover at a size threshold, per-segment version index,
/// checkpoint records carrying engine digests + image, truncation at
/// segment granularity, and CRC-validated crash recovery that truncates
/// at the first bad record.
class SegmentedBinlog {
 public:
  SegmentedBinlog(LogStore* store, SegmentedLogOptions options);

  /// Appends one entry. Versions must be strictly increasing; an append
  /// at or below the current head is a duplicate and is ignored (OK).
  /// `pos_out`, when given, receives the record's address.
  Status Append(const middleware::ReplicationEntry& entry,
                LogPosition* pos_out = nullptr);

  /// Appends an entry record even when its version is at or below the
  /// current head — a superseding rewrite. The physical log keeps both
  /// records (append-only storage never edits in place); the caller owns
  /// pointing its version index at the returned position. A cursor walk
  /// yields both records in log order, so cursor consumers must dedupe
  /// by version (RecoveryLog reads through its index instead).
  Status AppendSuperseding(const middleware::ReplicationEntry& entry,
                           LogPosition* pos_out = nullptr);

  /// Appends a checkpoint record (always fsynced) and remembers it as the
  /// latest. The checkpoint does not advance the entry head.
  Status AppendCheckpoint(const CheckpointRecord& cp);

  /// Reads one entry record at an exact address.
  Result<middleware::ReplicationEntry> ReadAt(const LogPosition& pos) const;

  /// Entries with version > after, in log order.
  LogCursor Cursor(middleware::GlobalVersion after) const {
    return LogCursor(this, after);
  }

  /// Scans every segment, validates CRCs, truncates the log at the first
  /// bad frame (and drops everything after it), rebuilds the in-memory
  /// segment and entry indexes, and returns the latest valid checkpoint.
  /// Call after a crash, before reading.
  Result<RecoveryInfo> Recover();

  /// Deletes sealed segments whose entire version span is <= `version`
  /// (segment-granular GC: a segment straddling the watermark survives).
  /// A segment holding the latest checkpoint survives until a later
  /// segment holds one too. Returns the number of records dropped.
  size_t TruncateThrough(middleware::GlobalVersion version);

  /// Persists the caller's apply watermark in the store's meta area.
  Status PersistWatermark(middleware::GlobalVersion version);
  /// The watermark PersistWatermark last wrote (0 when absent).
  middleware::GlobalVersion PersistedWatermark() const;

  middleware::GlobalVersion head_version() const { return head_version_; }
  middleware::GlobalVersion truncate_watermark() const {
    return truncate_watermark_;
  }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  BinlogStats Stats() const;

  LogStore* store() { return store_; }

  /// Meta key used by PersistWatermark.
  static constexpr const char* kWatermarkKey = "apply_watermark";

 private:
  friend class LogCursor;

  Status AppendRecord(RecordType type, const std::string& payload,
                      bool force_sync, LogPosition* pos_out);
  /// Appends an entry record and indexes it; no version checks.
  Status AppendEntry(const middleware::ReplicationEntry& entry,
                     LogPosition* pos_out);
  Status RollOver();

  LogStore* store_;
  SegmentedLogOptions options_;
  std::vector<SegmentInfo> segments_;  ///< Ascending; back() is active.
  middleware::GlobalVersion head_version_ = 0;
  middleware::GlobalVersion truncate_watermark_ = 0;
  CheckpointRecord latest_checkpoint_;
  bool have_checkpoint_ = false;
  uint64_t next_segment_ = 0;
  mutable uint64_t frames_read_ = 0;
};

}  // namespace replidb::binlog

#endif  // REPLIDB_BINLOG_SEGMENTED_LOG_H_

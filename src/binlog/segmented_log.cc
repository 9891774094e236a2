#include "binlog/segmented_log.h"

#include <algorithm>

#include "common/logging.h"

namespace replidb::binlog {

SegmentedBinlog::SegmentedBinlog(LogStore* store, SegmentedLogOptions options)
    : store_(store), options_(options) {}

Status SegmentedBinlog::RollOver() {
  uint64_t seg = next_segment_++;
  REPLIDB_RETURN_NOT_OK(store_->Create(seg));
  SegmentInfo info;
  info.segment = seg;
  segments_.push_back(info);
  return Status::OK();
}

Status SegmentedBinlog::AppendRecord(RecordType type,
                                     const std::string& payload,
                                     bool force_sync, LogPosition* pos_out) {
  if (segments_.empty() ||
      static_cast<int64_t>(segments_.back().bytes) >=
          options_.segment_max_bytes) {
    // Seal the previous active segment with a final sync so rollover is
    // also a durability point.
    if (!segments_.empty() && !options_.sync_every_append) {
      REPLIDB_RETURN_NOT_OK(store_->Sync(segments_.back().segment));
    }
    REPLIDB_RETURN_NOT_OK(RollOver());
  }
  SegmentInfo& active = segments_.back();
  std::string frame;
  PutRecord(type, payload, &frame);
  if (pos_out != nullptr) {
    pos_out->segment = active.segment;
    pos_out->offset = active.bytes;
  }
  REPLIDB_RETURN_NOT_OK(store_->Append(active.segment, frame));
  if (options_.sync_every_append || force_sync) {
    REPLIDB_RETURN_NOT_OK(store_->Sync(active.segment));
  }
  active.bytes += frame.size();
  ++active.records;
  return Status::OK();
}

Status SegmentedBinlog::AppendEntry(const middleware::ReplicationEntry& entry,
                                    LogPosition* pos_out) {
  LogPosition pos;
  REPLIDB_RETURN_NOT_OK(
      AppendRecord(RecordType::kEntry, EncodeEntryPayload(entry),
                   /*force_sync=*/false, &pos));
  SegmentInfo& active = segments_.back();
  if (active.base_version == 0) active.base_version = entry.version;
  active.last_version = std::max(active.last_version, entry.version);
  active.entries.push_back(EntryFrame{active.last_version, pos.offset});
  head_version_ = std::max(head_version_, entry.version);
  if (pos_out != nullptr) *pos_out = pos;
  return Status::OK();
}

Status SegmentedBinlog::Append(const middleware::ReplicationEntry& entry,
                               LogPosition* pos_out) {
  if (entry.version == 0) {
    return Status::InvalidArgument("binlog append: version 0");
  }
  if (entry.version <= head_version_) return Status::OK();  // Duplicate.
  return AppendEntry(entry, pos_out);
}

Status SegmentedBinlog::AppendSuperseding(
    const middleware::ReplicationEntry& entry, LogPosition* pos_out) {
  if (entry.version == 0) {
    return Status::InvalidArgument("binlog append: version 0");
  }
  return AppendEntry(entry, pos_out);
}

Status SegmentedBinlog::AppendCheckpoint(const CheckpointRecord& cp) {
  REPLIDB_RETURN_NOT_OK(AppendRecord(RecordType::kCheckpoint,
                                     EncodeCheckpointPayload(cp),
                                     /*force_sync=*/true, nullptr));
  segments_.back().has_checkpoint = true;
  latest_checkpoint_ = cp;
  have_checkpoint_ = true;
  return Status::OK();
}

Result<middleware::ReplicationEntry> SegmentedBinlog::ReadAt(
    const LogPosition& pos) const {
  Result<std::string> data = store_->Read(pos.segment);
  REPLIDB_RETURN_NOT_OK(data.status());
  if (pos.offset >= data.value().size()) {
    return Status::InvalidArgument("binlog read: offset beyond segment");
  }
  RecordView view;
  ++frames_read_;
  REPLIDB_RETURN_NOT_OK(ParseRecord(
      std::string_view(data.value()).substr(pos.offset), &view));
  if (view.type != RecordType::kEntry) {
    return Status::InvalidArgument("binlog read: not an entry record");
  }
  return DecodeEntryPayload(view.payload);
}

Result<RecoveryInfo> SegmentedBinlog::Recover() {
  segments_.clear();
  head_version_ = 0;
  have_checkpoint_ = false;
  latest_checkpoint_ = CheckpointRecord{};

  RecoveryInfo info;
  std::vector<uint64_t> listed = store_->List();
  next_segment_ = listed.empty() ? 0 : listed.back() + 1;
  bool log_ended = false;
  for (uint64_t seg : listed) {
    if (log_ended) {
      // Everything after the first bad frame is unreachable history (a
      // later segment cannot be trusted once the chain broke): drop it.
      ++info.dropped_segments;
      (void)store_->Delete(seg);
      continue;
    }
    Result<std::string> data = store_->Read(seg);
    if (!data.ok()) {
      log_ended = true;
      ++info.dropped_segments;
      (void)store_->Delete(seg);
      continue;
    }
    const std::string& bytes = data.value();
    SegmentInfo si;
    si.segment = seg;
    uint64_t offset = 0;
    while (offset < bytes.size()) {
      RecordView view;
      ++frames_read_;
      Status s = ParseRecord(std::string_view(bytes).substr(offset), &view);
      if (!s.ok()) {
        // First bad frame: the valid log ends here. Truncate the tail so
        // a future reader never sees the garbage.
        info.truncated_bytes += bytes.size() - offset;
        (void)store_->Truncate(seg, offset);
        log_ended = true;
        break;
      }
      if (view.type == RecordType::kEntry) {
        Result<middleware::ReplicationEntry> entry =
            DecodeEntryPayload(view.payload);
        if (!entry.ok()) {
          info.truncated_bytes += bytes.size() - offset;
          (void)store_->Truncate(seg, offset);
          log_ended = true;
          break;
        }
        if (si.base_version == 0) si.base_version = entry.value().version;
        si.last_version = std::max(si.last_version, entry.value().version);
        si.entries.push_back(EntryFrame{si.last_version, offset});
        head_version_ = std::max(head_version_, entry.value().version);
      } else {
        Result<CheckpointRecord> cp = DecodeCheckpointPayload(view.payload);
        if (!cp.ok()) {
          info.truncated_bytes += bytes.size() - offset;
          (void)store_->Truncate(seg, offset);
          log_ended = true;
          break;
        }
        si.has_checkpoint = true;
        latest_checkpoint_ = std::move(cp.value());
        have_checkpoint_ = true;
      }
      ++si.records;
      offset += view.frame_bytes;
    }
    si.bytes = offset;
    if (si.records > 0 || !log_ended) {
      info.records += si.records;
      segments_.push_back(std::move(si));
    } else {
      // Fully-invalid segment: nothing salvageable.
      (void)store_->Delete(seg);
    }
  }
  if (segments_.empty()) {
    REPLIDB_RETURN_NOT_OK(RollOver());
  }
  info.segments = segments_.size();
  info.last_version = head_version_;
  info.have_checkpoint = have_checkpoint_;
  if (have_checkpoint_) info.checkpoint = latest_checkpoint_;
  info.meta_watermark = PersistedWatermark();
  return info;
}

size_t SegmentedBinlog::TruncateThrough(middleware::GlobalVersion version) {
  size_t dropped = 0;
  while (segments_.size() > 1) {
    // A front segment without entries (the set-up checkpoint alone) has
    // an empty version span; only the checkpoint rule below can pin it.
    const SegmentInfo& front = segments_.front();
    if (front.last_version > version) break;
    // Never drop the segment holding the latest checkpoint unless a later
    // segment has one: recovery must always find a base image.
    bool later_checkpoint = false;
    for (size_t i = 1; i < segments_.size(); ++i) {
      if (segments_[i].has_checkpoint) {
        later_checkpoint = true;
        break;
      }
    }
    if (front.has_checkpoint && !later_checkpoint) break;
    dropped += front.records;
    (void)store_->Delete(front.segment);
    segments_.erase(segments_.begin());
  }
  truncate_watermark_ = std::max(truncate_watermark_, version);
  return dropped;
}

Status SegmentedBinlog::PersistWatermark(middleware::GlobalVersion version) {
  return store_->WriteMeta(kWatermarkKey, std::to_string(version));
}

middleware::GlobalVersion SegmentedBinlog::PersistedWatermark() const {
  Result<std::string> wm = store_->ReadMeta(kWatermarkKey);
  if (!wm.ok()) return 0;
  middleware::GlobalVersion v = 0;
  for (char c : wm.value()) {
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<middleware::GlobalVersion>(c - '0');
  }
  return v;
}

BinlogStats SegmentedBinlog::Stats() const {
  BinlogStats st;
  st.segments = segments_.size();
  for (const SegmentInfo& s : segments_) {
    st.total_bytes += s.bytes;
    st.records += s.records;
  }
  if (!segments_.empty()) st.active_segment_bytes = segments_.back().bytes;
  st.last_version = head_version_;
  st.truncate_watermark = truncate_watermark_;
  st.frames_read = frames_read_;
  if (have_checkpoint_) {
    st.checkpoint_version = latest_checkpoint_.version;
    st.checkpoint_at_us = latest_checkpoint_.taken_at_us;
  }
  return st;
}

// ---------------------------------------------------------------------------
// LogCursor
// ---------------------------------------------------------------------------

LogCursor::LogCursor(const SegmentedBinlog* log,
                     middleware::GlobalVersion after)
    : log_(log), after_(after) {
  // Segment-index seek (the bl_ctx idiom): skip whole segments whose
  // entire version span is <= after.
  const std::vector<SegmentInfo>& segments = log_->segments_;
  while (segment_index_ + 1 < segments.size()) {
    const SegmentInfo& s = segments[segment_index_];
    if (s.last_version != 0 && s.last_version > after_) break;
    if (s.last_version == 0 && s.records == 0) break;  // Empty active tail.
    ++segment_index_;
  }
  if (segment_index_ == segments.size()) return;
  // Entry-index seek: every frame before the first one whose running max
  // exceeds `after` is a checkpoint or an entry at or below `after`.
  const SegmentInfo& seg = segments[segment_index_];
  auto first = std::upper_bound(
      seg.entries.begin(), seg.entries.end(), after_,
      [](middleware::GlobalVersion v, const EntryFrame& f) {
        return v < f.max_version;
      });
  offset_ = first == seg.entries.end() ? seg.bytes : first->offset;
}

bool LogCursor::Next(middleware::ReplicationEntry* out) {
  while (segment_index_ < log_->segments_.size()) {
    const SegmentInfo& seg = log_->segments_[segment_index_];
    if (!buffer_valid_) {
      Result<std::string> data = log_->store_->Read(seg.segment);
      if (!data.ok()) {
        status_ = data.status();
        return false;
      }
      buffer_ = std::move(data.value());
      buffer_valid_ = true;
    }
    // The in-memory index may be ahead of the durable bytes when the
    // store lost an unsynced tail; stop at whichever ends first.
    uint64_t limit = std::min<uint64_t>(buffer_.size(), seg.bytes);
    while (offset_ < limit) {
      RecordView view;
      ++log_->frames_read_;
      Status s = ParseRecord(std::string_view(buffer_).substr(offset_), &view);
      if (!s.ok()) {
        status_ = s;
        return false;
      }
      offset_ += view.frame_bytes;
      if (view.type != RecordType::kEntry) continue;
      Result<middleware::ReplicationEntry> entry =
          DecodeEntryPayload(view.payload);
      if (!entry.ok()) {
        status_ = entry.status();
        return false;
      }
      if (entry.value().version <= after_) continue;
      *out = std::move(entry.value());
      return true;
    }
    ++segment_index_;
    offset_ = 0;
    buffer_valid_ = false;
  }
  return false;
}

}  // namespace replidb::binlog

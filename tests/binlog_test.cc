// Tests for the durable segmented binlog (src/binlog): record framing,
// the LogStore durability/fault model, segment rollover and truncation,
// CRC-validated crash recovery ("never apply garbage"), the file
// backend, and end-to-end crash-restart through a cluster in every
// replication mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "middleware/cluster.h"
#include "obs/recorder.h"

namespace replidb::binlog {
namespace {

using middleware::GlobalVersion;
using middleware::ReplicationEntry;
using sim::kMillisecond;
using sim::kSecond;

/// Entries with equal-length statements encode to equal-length frames,
/// which is what the exact-boundary rollover tests rely on.
ReplicationEntry Entry(GlobalVersion v) {
  ReplicationEntry e;
  e.version = v;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "UPDATE t SET x = %08llu",
                static_cast<unsigned long long>(v));
  e.statements = {buf};
  e.use_statements = true;
  e.origin_commit_us = static_cast<int64_t>(v) * 1000;
  return e;
}

size_t FrameBytes(const ReplicationEntry& e) {
  std::string frame;
  PutRecord(RecordType::kEntry, EncodeEntryPayload(e), &frame);
  return frame.size();
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

TEST(FormatTest, EntryRecordRoundTrips) {
  ReplicationEntry e = Entry(42);
  std::string frame;
  PutRecord(RecordType::kEntry, EncodeEntryPayload(e), &frame);
  RecordView view;
  ASSERT_TRUE(ParseRecord(frame, &view).ok());
  EXPECT_EQ(view.type, RecordType::kEntry);
  EXPECT_EQ(view.frame_bytes, frame.size());
  Result<ReplicationEntry> back = DecodeEntryPayload(view.payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().version, 42u);
  EXPECT_EQ(back.value().statements, e.statements);
  EXPECT_EQ(back.value().origin_commit_us, e.origin_commit_us);
}

TEST(FormatTest, CheckpointRecordRoundTrips) {
  CheckpointRecord cp;
  cp.version = 7;
  cp.digests = {{"db.accounts", 0x1234u}, {"db.orders", 0x5678u}};
  cp.taken_at_us = 99;
  std::string frame;
  PutRecord(RecordType::kCheckpoint, EncodeCheckpointPayload(cp), &frame);
  RecordView view;
  ASSERT_TRUE(ParseRecord(frame, &view).ok());
  EXPECT_EQ(view.type, RecordType::kCheckpoint);
  Result<CheckpointRecord> back = DecodeCheckpointPayload(view.payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().version, 7u);
  EXPECT_EQ(back.value().digests, cp.digests);
  EXPECT_EQ(back.value().taken_at_us, 99);
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

// Frames are the on-disk format: recovery and perfbench's segment replay
// compare them byte for byte, so framing, CRC and payload encoding are
// pinned here to the bytes the format has always produced.
TEST(FormatTest, FrameBytesAreGolden) {
  std::string entry_frame;
  PutRecord(RecordType::kEntry, EncodeEntryPayload(Entry(42)), &entry_frame);
  EXPECT_EQ(Hex(entry_frame),
            "474c42520100260000006c8c5e2dd55b01030154a09005010132555044415445"
            "2074205345542078203d20303030303030343200");

  CheckpointRecord cp;
  cp.version = 9;
  cp.taken_at_us = 123456;
  cp.digests = {{"main.t", 0x0123456789abcdefULL}};
  engine::BackupImage& img = cp.image;
  img.source_name = "r1";
  img.as_of = 9;
  img.has_metadata = true;
  img.has_sequences = true;
  engine::BackupImage::DatabaseImage db;
  db.name = "main";
  engine::BackupImage::TableImage t;
  t.schema.name = "t";
  sql::ColumnDef id;
  id.name = "id";
  id.type = sql::ValueType::kInt;
  id.primary_key = true;
  id.auto_increment = true;
  sql::ColumnDef name;
  name.name = "name";
  name.type = sql::ValueType::kString;
  name.not_null = true;
  t.schema.columns = {id, name};
  t.schema.primary_key_index = 0;
  t.auto_increment = 3;
  t.rows = {{sql::Value::Int(1), sql::Value::String("a")},
            {sql::Value::Int(2), sql::Value::String("bc")}};
  db.tables.push_back(std::move(t));
  db.sequences["s"] = 7;
  img.databases.push_back(std::move(db));
  img.users = {"admin"};
  img.trigger_names = {"trg"};
  std::string cp_frame;
  PutRecord(RecordType::kCheckpoint, EncodeCheckpointPayload(cp), &cp_frame);
  EXPECT_EQ(Hex(cp_frame),
            "474c42520200790000009118ce3a0940e201000000000001066d61696e2e74ef"
            "cdab896745230102723109010101046d61696e010174020269640103046e616d"
            "6503080000000000000000000300000000000000020201010000000000000003"
            "016102010200000000000000030262630101730700000000000000010561646d"
            "696e0103747267");
}

TEST(FormatTest, ParseRejectsCorruptionAndTruncation) {
  std::string frame;
  PutRecord(RecordType::kEntry, EncodeEntryPayload(Entry(1)), &frame);
  RecordView view;
  // Bit flip in the payload: CRC mismatch.
  std::string flipped = frame;
  flipped[kRecordHeaderBytes + 2] ^= 0x01;
  EXPECT_FALSE(ParseRecord(flipped, &view).ok());
  // Bit flip in the header (type byte): CRC mismatch or unknown type.
  std::string badtype = frame;
  badtype[4] = 0x7f;
  EXPECT_FALSE(ParseRecord(badtype, &view).ok());
  // Bad magic.
  std::string badmagic = frame;
  badmagic[0] ^= 0xff;
  EXPECT_FALSE(ParseRecord(badmagic, &view).ok());
  // Torn tails: any prefix shorter than the full frame fails.
  for (size_t cut : {size_t{0}, size_t{4}, kRecordHeaderBytes - 1,
                     kRecordHeaderBytes, frame.size() - 1}) {
    EXPECT_FALSE(ParseRecord(std::string_view(frame).substr(0, cut), &view).ok())
        << "prefix of " << cut << " bytes parsed as a whole record";
  }
}

// ---------------------------------------------------------------------------
// LogStore durability + fault model
// ---------------------------------------------------------------------------

TEST(MemLogStoreTest, DropUnsyncedLosesOnlyTheUnsyncedTail) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  ASSERT_TRUE(store.Append(0, "durable").ok());
  ASSERT_TRUE(store.Sync(0).ok());
  ASSERT_TRUE(store.Append(0, "+volatile").ok());
  store.DropUnsynced();
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "durable");
}

TEST(MemLogStoreTest, TornWritePersistsOnlyAPrefixThenSelfClears) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  store.InjectTornWrite(3);
  ASSERT_TRUE(store.Append(0, "abcdef").ok()) << "torn write lies: reports OK";
  EXPECT_FALSE(store.torn_write_armed()) << "fault must self-clear";
  ASSERT_TRUE(store.Append(0, "XY").ok());
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "abcXY");
}

TEST(MemLogStoreTest, PartialSyncLeavesTailVolatile) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  ASSERT_TRUE(store.Append(0, "abcdefgh").ok());
  store.InjectPartialSync(4);
  ASSERT_TRUE(store.Sync(0).ok()) << "partial fsync lies: reports OK";
  EXPECT_FALSE(store.partial_sync_armed()) << "fault must self-clear";
  store.DropUnsynced();
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "abcd") << "the lied-about tail vanished";
}

TEST(MemLogStoreTest, FailAppendsModelsWritePathOutage) {
  MemLogStore store;
  ASSERT_TRUE(store.Create(0).ok());
  store.FailAppends(true);
  EXPECT_FALSE(store.Append(0, "x").ok());
  store.FailAppends(false);
  EXPECT_TRUE(store.Append(0, "x").ok());
}

TEST(MemLogStoreTest, MetaIsAtomicAndDebugSerializeIsDeterministic) {
  MemLogStore a, b;
  for (MemLogStore* s : {&a, &b}) {
    ASSERT_TRUE(s->Create(3).ok());
    ASSERT_TRUE(s->Append(3, "hello").ok());
    ASSERT_TRUE(s->Sync(3).ok());
    ASSERT_TRUE(s->WriteMeta("apply_watermark", "17").ok());
  }
  EXPECT_EQ(a.DebugSerialize(), b.DebugSerialize());
  Result<std::string> wm = a.ReadMeta("apply_watermark");
  ASSERT_TRUE(wm.ok());
  EXPECT_EQ(wm.value(), "17");
  EXPECT_EQ(a.ReadMeta("never_written").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// SegmentedBinlog: rollover, dedupe, cursor
// ---------------------------------------------------------------------------

TEST(SegmentedBinlogTest, RollsOverAtExactRecordBoundary) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 6; ++v) {
    ASSERT_TRUE(log.Append(Entry(v)).ok());
  }
  // Rollover triggers once the active segment REACHES the cap, so every
  // sealed segment holds exactly two records.
  ASSERT_EQ(log.segments().size(), 3u);
  for (const SegmentInfo& s : log.segments()) {
    EXPECT_EQ(s.records, 2u);
    EXPECT_EQ(s.bytes, 2 * frame);
  }
  EXPECT_EQ(log.segments()[0].base_version, 1u);
  EXPECT_EQ(log.segments()[0].last_version, 2u);
  EXPECT_EQ(log.segments()[2].base_version, 5u);
  EXPECT_EQ(log.segments()[2].last_version, 6u);
}

TEST(SegmentedBinlogTest, RecordsAreNeverSplitAcrossSegments) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  // Cap below one frame: each record still lands whole, one per segment,
  // and the segment exceeds the cap rather than splitting the record.
  opts.segment_max_bytes = static_cast<int64_t>(frame - 1);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 3; ++v) {
    ASSERT_TRUE(log.Append(Entry(v)).ok());
  }
  ASSERT_EQ(log.segments().size(), 3u);
  for (const SegmentInfo& s : log.segments()) {
    EXPECT_EQ(s.records, 1u);
    EXPECT_EQ(s.bytes, frame);
  }
}

TEST(SegmentedBinlogTest, DuplicateAppendIsANoOp) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok()) << "duplicate reports OK";
  ASSERT_TRUE(log.Append(Entry(1)).ok()) << "stale reports OK";
  EXPECT_EQ(log.head_version(), 2u);
  EXPECT_EQ(log.Stats().records, 2u) << "duplicates must not hit the store";
  EXPECT_FALSE(log.Append(Entry(0)).ok()) << "version 0 is invalid";
}

TEST(SegmentedBinlogTest, AppendSupersedingWritesBelowHead) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  ReplicationEntry rewrite = Entry(1);
  rewrite.statements = {"UPDATE t SET x = 111"};
  LogPosition pos;
  ASSERT_TRUE(log.AppendSuperseding(rewrite, &pos).ok());
  EXPECT_EQ(log.head_version(), 2u) << "a rewrite does not move the head";
  EXPECT_EQ(log.Stats().records, 3u) << "append-only: both records kept";
  // The returned position addresses the superseding record.
  Result<ReplicationEntry> at = log.ReadAt(pos);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at.value().statements, rewrite.statements);
  // A raw cursor walk sees both v=1 records, in log order.
  LogCursor cur = log.Cursor(0);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) seen.push_back(e.version);
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{1, 2, 1}));
}

TEST(SegmentedBinlogTest, CursorSkipsCheckpointsAndSeeksPastSegments) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 4; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 4;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  for (GlobalVersion v = 5; v <= 8; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  LogCursor cur = log.Cursor(3);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) seen.push_back(e.version);
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{4, 5, 6, 7, 8}))
      << "entries only, in order, strictly after the start version";
}

/// Every entry record in the store, by a full frame-by-frame scan of each
/// segment in order: the reference a seeking cursor must agree with.
std::vector<ReplicationEntry> ScanAllEntries(const LogStore& store) {
  std::vector<ReplicationEntry> out;
  for (uint64_t seg : store.List()) {
    Result<std::string> data = store.Read(seg);
    EXPECT_TRUE(data.ok());
    if (!data.ok()) continue;
    std::string_view bytes = data.value();
    size_t offset = 0;
    while (offset < bytes.size()) {
      RecordView view;
      Status st = ParseRecord(bytes.substr(offset), &view);
      EXPECT_TRUE(st.ok()) << "segment " << seg << " offset " << offset;
      if (!st.ok()) break;
      offset += view.frame_bytes;
      if (view.type != RecordType::kEntry) continue;
      Result<ReplicationEntry> e = DecodeEntryPayload(view.payload);
      EXPECT_TRUE(e.ok());
      if (e.ok()) out.push_back(e.TakeValue());
    }
  }
  return out;
}

/// Cursor(after) for every `after` in [0, head + 1] matches the reference
/// scan filtered to versions > after, in log order.
void ExpectCursorsMatchScan(const SegmentedBinlog& log,
                            const LogStore& store) {
  const std::vector<ReplicationEntry> all = ScanAllEntries(store);
  for (GlobalVersion after = 0; after <= log.head_version() + 1; ++after) {
    std::vector<std::pair<GlobalVersion, std::string>> want, got;
    for (const ReplicationEntry& e : all) {
      if (e.version > after) want.emplace_back(e.version, e.statements[0]);
    }
    LogCursor cur = log.Cursor(after);
    ReplicationEntry e;
    while (cur.Next(&e)) got.emplace_back(e.version, e.statements[0]);
    ASSERT_TRUE(cur.status().ok()) << cur.status().ToString();
    ASSERT_EQ(got, want) << "Cursor(" << after << ")";
  }
}

TEST(SegmentedBinlogTest, SeekingCursorMatchesAFullScanOracle) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    MemLogStore store;
    SegmentedLogOptions opts;
    opts.segment_max_bytes = static_cast<int64_t>(3 * FrameBytes(Entry(1)));
    auto log = std::make_unique<SegmentedBinlog>(&store, opts);
    uint64_t rewrites = 0;
    for (int op = 0; op < 300; ++op) {
      uint64_t pick = rng.Uniform(100);
      bool check = op % 20 == 0;
      GlobalVersion head = log->head_version();
      if (pick < 55) {
        // Appends, sometimes with version gaps.
        ASSERT_TRUE(log->Append(Entry(head + 1 + rng.Uniform(3))).ok());
      } else if (pick < 70) {
        // A superseding rewrite at or below the head (or just above it).
        ReplicationEntry e = Entry(1 + rng.Uniform(head + 2));
        e.statements = {"REWRITE " + std::to_string(++rewrites)};
        ASSERT_TRUE(log->AppendSuperseding(e).ok());
      } else if (pick < 80) {
        CheckpointRecord cp;
        cp.version = head;
        ASSERT_TRUE(log->AppendCheckpoint(cp).ok());
      } else if (pick < 90) {
        log->TruncateThrough(rng.Uniform(head + 1));
        check = true;
      } else {
        // Crash mid-append: a torn tail, then recovery into a new object.
        store.InjectTornWrite(1 + rng.Uniform(FrameBytes(Entry(head + 1))));
        ASSERT_TRUE(log->Append(Entry(head + 1)).ok());
        log = std::make_unique<SegmentedBinlog>(&store, opts);
        ASSERT_TRUE(log->Recover().ok());
        check = true;
      }
      if (check) ExpectCursorsMatchScan(*log, store);
      if (HasFatalFailure()) return;
    }
    ExpectCursorsMatchScan(*log, store);
    if (HasFatalFailure()) return;

    // A cursor one below the head parses O(1) frames, however long the
    // active segment and the log are.
    GlobalVersion head = log->head_version();
    ASSERT_TRUE(log->Append(Entry(head + 1)).ok());
    ASSERT_TRUE(log->Append(Entry(head + 2)).ok());
    uint64_t before = log->Stats().frames_read;
    LogCursor cur = log->Cursor(head + 1);
    ReplicationEntry e;
    std::vector<GlobalVersion> seen;
    while (cur.Next(&e)) seen.push_back(e.version);
    EXPECT_EQ(seen, (std::vector<GlobalVersion>{head + 2}));
    EXPECT_LE(log->Stats().frames_read - before, 1u);
  }
}

TEST(SegmentedBinlogTest, ShipTickCursorParsesOnlyTheFramesItShips) {
  // One big active segment, as on a master with sparse writes: a cursor at
  // the shipped watermark must not rescan the segment from offset 0.
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  CheckpointRecord setup;
  ASSERT_TRUE(log.AppendCheckpoint(setup).ok());
  for (GlobalVersion v = 1; v <= 500; ++v) {
    ASSERT_TRUE(log.Append(Entry(v)).ok());
  }
  ASSERT_EQ(log.segments().size(), 1u);
  uint64_t before = log.Stats().frames_read;
  LogCursor cur = log.Cursor(495);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) seen.push_back(e.version);
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{496, 497, 498, 499, 500}));
  EXPECT_EQ(log.Stats().frames_read - before, 5u);
  // ReadAt parses exactly one frame.
  LogPosition pos;
  ASSERT_TRUE(log.Append(Entry(501), &pos).ok());
  before = log.Stats().frames_read;
  ASSERT_TRUE(log.ReadAt(pos).ok());
  EXPECT_EQ(log.Stats().frames_read - before, 1u);
}

// ---------------------------------------------------------------------------
// Recovery: CRC truncation, torn writes, partial fsync
// ---------------------------------------------------------------------------

TEST(SegmentedBinlogTest, RecoverTruncatesAtFirstBadRecordAndDropsTheRest) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(3 * frame);
  SegmentedBinlog log(&store, opts);
  LogPosition pos4;
  for (GlobalVersion v = 1; v <= 9; ++v) {
    LogPosition pos;
    ASSERT_TRUE(log.Append(Entry(v), &pos).ok());
    if (v == 4) pos4 = pos;
  }
  ASSERT_EQ(log.segments().size(), 3u);
  // Flip one payload byte inside record v=4 (segment 1, first record).
  ASSERT_TRUE(store.CorruptAt(pos4.segment,
                              pos4.offset + kRecordHeaderBytes + 1, 'Z')
                  .ok());
  SegmentedBinlog reopened(&store, opts);
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().last_version, 3u)
      << "the valid log ends just before the corrupt record";
  EXPECT_EQ(info.value().records, 3u);
  EXPECT_GT(info.value().truncated_bytes, 0u);
  EXPECT_EQ(info.value().dropped_segments, 1u)
      << "the segment after the broken chain is untrusted history";
  // Nothing past the corruption is ever surfaced: a full cursor walk
  // yields exactly the intact prefix, never garbage.
  LogCursor cur = reopened.Cursor(0);
  ReplicationEntry e;
  std::vector<GlobalVersion> seen;
  while (cur.Next(&e)) {
    EXPECT_EQ(e.statements, Entry(e.version).statements)
        << "replayed bytes must be byte-faithful";
    seen.push_back(e.version);
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, (std::vector<GlobalVersion>{1, 2, 3}));
}

TEST(SegmentedBinlogTest, TornWriteIsTruncatedOnRecovery) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  // The next frame persists only its first 7 bytes (mid-header tear).
  store.InjectTornWrite(7);
  ASSERT_TRUE(log.Append(Entry(3)).ok()) << "the writer never learns";
  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().last_version, 2u) << "torn record discarded";
  EXPECT_EQ(info.value().truncated_bytes, 7u);
  // The log is writable again right where the tear was cut off.
  ASSERT_TRUE(reopened.Append(Entry(3)).ok());
  EXPECT_EQ(reopened.head_version(), 3u);
}

TEST(SegmentedBinlogTest, PartialFsyncTailVanishesOnCrash) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  ASSERT_TRUE(log.Append(Entry(1)).ok());
  const size_t frame = FrameBytes(Entry(2));
  // The sync after v=2's append silently leaves the whole frame volatile.
  store.InjectPartialSync(frame);
  ASSERT_TRUE(log.Append(Entry(2)).ok());
  store.DropUnsynced();  // Crash.
  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().last_version, 1u)
      << "the acked-but-never-durable record is gone, cleanly";
}

// ---------------------------------------------------------------------------
// Checkpoints + truncation
// ---------------------------------------------------------------------------

TEST(SegmentedBinlogTest, TruncationNeverDropsTheLatestCheckpointSegment) {
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  for (GlobalVersion v = 1; v <= 4; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 4;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  for (GlobalVersion v = 5; v <= 8; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  ASSERT_GE(log.segments().size(), 3u);
  uint64_t cp_segment = 0;
  size_t before_cp = 0;  // Records in segments strictly before the checkpoint.
  for (const SegmentInfo& s : log.segments()) {
    if (s.has_checkpoint) {
      cp_segment = s.segment;
      break;
    }
    before_cp += s.records;
  }
  ASSERT_GT(before_cp, 0u) << "layout: some entries precede the checkpoint";
  // Everything is <= 8, so all segments before the checkpoint's are
  // droppable — but the checkpoint's own segment must survive even though
  // its whole version span is covered: recovery needs the base image.
  size_t dropped = log.TruncateThrough(8);
  EXPECT_EQ(dropped, before_cp);
  ASSERT_FALSE(log.segments().empty());
  EXPECT_EQ(log.segments().front().segment, cp_segment);
  EXPECT_TRUE(log.segments().front().has_checkpoint);
  EXPECT_EQ(log.truncate_watermark(), 8u);
  // A newer checkpoint releases the pin on the old checkpoint's segment.
  CheckpointRecord cp2;
  cp2.version = 8;
  ASSERT_TRUE(log.AppendCheckpoint(cp2).ok());
  size_t dropped2 = log.TruncateThrough(8);
  EXPECT_GT(dropped2, 0u) << "old checkpoint segment now droppable";
  ASSERT_FALSE(log.segments().empty()) << "at least one segment always kept";
  EXPECT_NE(log.segments().front().segment, cp_segment);
}

TEST(SegmentedBinlogTest, TruncationDropsACheckpointOnlyFrontSegment) {
  // A replica's log starts with its set-up checkpoint alone in segment 0.
  MemLogStore store;
  const size_t frame = FrameBytes(Entry(1));
  SegmentedLogOptions opts;
  opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
  SegmentedBinlog log(&store, opts);
  CheckpointRecord setup;
  setup.version = 0;
  setup.image.source_name = std::string(2 * frame, 'x');  // Seals segment 0.
  ASSERT_TRUE(log.AppendCheckpoint(setup).ok());
  for (GlobalVersion v = 1; v <= 6; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  ASSERT_EQ(log.segments().front().last_version, 0u);
  ASSERT_TRUE(log.segments().front().has_checkpoint);
  const uint64_t setup_segment = log.segments().front().segment;
  // While it holds the only checkpoint, it pins the whole log.
  EXPECT_EQ(log.TruncateThrough(6), 0u);
  EXPECT_EQ(log.segments().front().segment, setup_segment);

  CheckpointRecord cp;
  cp.version = 6;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  for (GlobalVersion v = 7; v <= 8; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  size_t dropped = log.TruncateThrough(6);
  EXPECT_EQ(dropped, 1u + 6u) << "set-up checkpoint and v1..6 collected";
  ASSERT_FALSE(log.segments().empty());
  EXPECT_NE(log.segments().front().segment, setup_segment);
  EXPECT_EQ(store.List().front(), log.segments().front().segment);
  // The newest checkpoint always survives, and recovery still finds it.
  bool newest_kept = false;
  for (const SegmentInfo& s : log.segments()) newest_kept |= s.has_checkpoint;
  EXPECT_TRUE(newest_kept);
  SegmentedBinlog reopened(&store, opts);
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().have_checkpoint);
  EXPECT_EQ(info.value().checkpoint.version, 6u);
  EXPECT_EQ(info.value().last_version, 8u);
}

TEST(SegmentedBinlogTest, WatermarkAndCheckpointSurviveRecovery) {
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  for (GlobalVersion v = 1; v <= 5; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord cp;
  cp.version = 5;
  cp.digests = {{"db.t", 0xfeedu}};
  cp.taken_at_us = 1234;
  ASSERT_TRUE(log.AppendCheckpoint(cp).ok());
  ASSERT_TRUE(log.PersistWatermark(5).ok());
  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().have_checkpoint);
  EXPECT_EQ(info.value().checkpoint.version, 5u);
  EXPECT_EQ(info.value().checkpoint.digests, cp.digests);
  EXPECT_EQ(info.value().meta_watermark, 5u);
  EXPECT_EQ(reopened.Stats().checkpoint_at_us, 1234);
}

TEST(SegmentedBinlogTest, RecoverReturnsTheLatestCheckpointsFullImage) {
  // The log remembers only the latest checkpoint's version and time;
  // its image lives in the log bytes, and Recover() must decode the
  // newest one in full.
  auto image = [](const std::string& source, int rows) {
    engine::BackupImage img;
    img.source_name = source;
    img.as_of = static_cast<engine::CommitSeq>(rows);
    img.has_metadata = true;
    img.users = {"admin", source};
    engine::BackupImage::DatabaseImage db;
    db.name = "main";
    engine::BackupImage::TableImage t;
    t.schema.name = "t";
    sql::ColumnDef c;
    c.name = "id";
    t.schema.columns = {c};
    for (int i = 0; i < rows; ++i) t.rows.push_back({sql::Value::Int(i)});
    db.tables.push_back(std::move(t));
    img.databases.push_back(std::move(db));
    return img;
  };
  MemLogStore store;
  SegmentedBinlog log(&store, SegmentedLogOptions{});
  for (GlobalVersion v = 1; v <= 3; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord first;
  first.version = 3;
  first.taken_at_us = 300;
  first.digests = {{"main.t", 3u}};
  first.image = image("first", 3);
  ASSERT_TRUE(log.AppendCheckpoint(first).ok());
  for (GlobalVersion v = 4; v <= 6; ++v) ASSERT_TRUE(log.Append(Entry(v)).ok());
  CheckpointRecord second;
  second.version = 6;
  second.taken_at_us = 600;
  second.digests = {{"main.t", 6u}};
  second.image = image("second", 5);
  ASSERT_TRUE(log.AppendCheckpoint(second).ok());
  BinlogStats st = log.Stats();
  EXPECT_EQ(st.checkpoint_version, 6u);
  EXPECT_EQ(st.checkpoint_at_us, 600);
  EXPECT_EQ(st.checkpoints_appended, 2u);
  EXPECT_EQ(st.checkpoint_image_rows, 8u);

  SegmentedBinlog reopened(&store, SegmentedLogOptions{});
  Result<RecoveryInfo> info = reopened.Recover();
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().have_checkpoint);
  const CheckpointRecord& cp = info.value().checkpoint;
  EXPECT_EQ(cp.version, 6u);
  EXPECT_EQ(cp.taken_at_us, 600);
  EXPECT_EQ(cp.digests, second.digests);
  EXPECT_EQ(cp.image.source_name, "second");
  EXPECT_EQ(cp.image.users, second.image.users);
  ASSERT_EQ(cp.image.databases.size(), 1u);
  ASSERT_EQ(cp.image.databases[0].tables.size(), 1u);
  EXPECT_EQ(cp.image.databases[0].tables[0].rows,
            second.image.databases[0].tables[0].rows);
  EXPECT_EQ(cp.image.RowCount(), 5u);
  EXPECT_EQ(reopened.Stats().checkpoint_version, 6u);
  EXPECT_EQ(reopened.Stats().checkpoint_at_us, 600);
}

// ---------------------------------------------------------------------------
// File backend (real filesystem, temp dir)
// ---------------------------------------------------------------------------

TEST(FileLogStoreTest, LogSurvivesProcessRestartOnDisk) {
  char tmpl[] = "/tmp/binlog-test-XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  std::string path(dir);
  const size_t frame = FrameBytes(Entry(1));
  {
    FileLogStore store(path);
    ASSERT_TRUE(store.Open().ok());
    SegmentedLogOptions opts;
    opts.segment_max_bytes = static_cast<int64_t>(2 * frame);
    SegmentedBinlog log(&store, opts);
    for (GlobalVersion v = 1; v <= 5; ++v) {
      ASSERT_TRUE(log.Append(Entry(v)).ok());
    }
    ASSERT_TRUE(log.PersistWatermark(5).ok());
  }
  // "New process": fresh store + Recover sees everything, including after
  // a mid-frame tear cut into the last file on disk.
  {
    FileLogStore store(path);
    ASSERT_TRUE(store.Open().ok());
    SegmentedBinlog log(&store, SegmentedLogOptions{});
    Result<RecoveryInfo> info = log.Recover();
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().last_version, 5u);
    EXPECT_EQ(info.value().meta_watermark, 5u);
    // Tear the last segment mid-frame, as a crashed kernel would.
    std::vector<uint64_t> segs = store.List();
    ASSERT_FALSE(segs.empty());
    Result<std::string> bytes = store.Read(segs.back());
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(store.Truncate(segs.back(), bytes.value().size() - 5).ok());
  }
  {
    FileLogStore store(path);
    ASSERT_TRUE(store.Open().ok());
    SegmentedBinlog log(&store, SegmentedLogOptions{});
    Result<RecoveryInfo> info = log.Recover();
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().last_version, 4u) << "torn frame truncated";
    EXPECT_GT(info.value().truncated_bytes, 0u);
    // Cleanup.
    for (uint64_t seg : store.List()) (void)store.Delete(seg);
  }
  std::remove((path + "/meta-apply_watermark").c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: durable crash-restart through a cluster, all four modes
// ---------------------------------------------------------------------------

middleware::TxnRequest Write(const std::string& sql) {
  middleware::TxnRequest r;
  r.statements = {sql};
  r.read_only = false;
  return r;
}

std::vector<std::string> AccountsSetup(int rows = 50) {
  std::vector<std::string> out;
  out.push_back("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)");
  std::string batch = "INSERT INTO accounts VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i) batch += ", ";
    batch += "(" + std::to_string(i) + ", 100)";
  }
  out.push_back(batch);
  return out;
}

class BinlogAllModesTest
    : public ::testing::TestWithParam<middleware::ReplicationMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, BinlogAllModesTest,
    ::testing::Values(middleware::ReplicationMode::kMasterSlaveAsync,
                      middleware::ReplicationMode::kMasterSlaveSync,
                      middleware::ReplicationMode::kMultiMasterStatement,
                      middleware::ReplicationMode::kMultiMasterCertification),
    [](const ::testing::TestParamInfo<middleware::ReplicationMode>& info) {
      switch (info.param) {
        case middleware::ReplicationMode::kMasterSlaveAsync:
          return std::string("MsAsync");
        case middleware::ReplicationMode::kMasterSlaveSync:
          return std::string("MsSync");
        case middleware::ReplicationMode::kMultiMasterStatement:
          return std::string("MmStmt");
        default:
          return std::string("MmCert");
      }
    });

TEST_P(BinlogAllModesTest, KillMidApplyRestartReplaysAndConverges) {
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = GetParam();
  opts.replica.binlog.durable = true;
  opts.replica.binlog.checkpoint_every = 16;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);

  // Crash replica 2 the instant its engine has applied version 20 — in
  // the middle of the apply stream, not at a quiescent boundary.
  faults::FaultInjector injector(&c.sim);
  injector.KillAfterApply(c.replica(2), 20);

  int submitted = 0, committed = 0;
  for (int i = 0; i < 60; ++i) {
    ++submitted;
    c.driver(0)->Submit(
        Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
              std::to_string(i % 50)),
        [&](const middleware::TxnResult& r) {
          if (r.status.ok()) ++committed;
        });
    c.sim.RunFor(50 * kMillisecond);
  }
  c.sim.RunFor(2 * kSecond);
  ASSERT_TRUE(c.replica(2)->crashed()) << "kill-mid-apply never fired";
  EXPECT_EQ(injector.crashes_injected(), 1);
  GlobalVersion watermark = c.replica(2)->persisted_watermark();
  EXPECT_GE(watermark, 20u) << "apply watermark persisted before the crash";

  c.replica(2)->Restart();
  c.sim.RunFor(15 * kSecond);
  EXPECT_GE(c.replica(2)->recoveries(), 1);
  EXPECT_GT(c.replica(2)->last_recovery_replayed(), 0u)
      << "restart must replay the log tail, not start cold";
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(c.Converged())
      << "after checkpoint+tail recovery every engine digest must match";
  EXPECT_EQ(c.replica(2)->engine()->ContentHash(),
            c.replica(0)->engine()->ContentHash());
  binlog::BinlogStats bl = c.replica(2)->DurableLogStats();
  EXPECT_GT(bl.records, 0u);
  EXPECT_GE(bl.checkpoint_version, 1u) << "setup seeds the first checkpoint";
  EXPECT_EQ(bl.checkpoint_image_rows, bl.checkpoints_appended * 50)
      << "every durable checkpoint carries the full image";
}

// Kill-mid-apply under dependency-aware parallel apply: 4 workers with
// the conflict-graph policy must not change what recovery sees. The
// persisted watermark only ever advances through the in-order visibility
// release, so checkpoint+tail replay resumes from a version-contiguous
// prefix, converges to the same digests — and the restarted replica's
// scheduler starts from a clean state (no conflict keys or barrier
// horizon survive the crash).
TEST_P(BinlogAllModesTest, KillMidParallelApplyRestartConverges) {
  middleware::ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = GetParam();
  opts.replica.binlog.durable = true;
  opts.replica.binlog.checkpoint_every = 16;
  opts.replica.apply_workers = 4;
  opts.replica.apply_policy = middleware::ApplyPolicy::kConflictGraph;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);

  faults::FaultInjector injector(&c.sim);
  injector.KillAfterApply(c.replica(2), 20);

  int committed = 0;
  for (int i = 0; i < 60; ++i) {
    // Bursts of four writes over a handful of hot rows: the conflict
    // graph sees both overlap (distinct rows) and dependencies (repeats).
    for (int j = 0; j < 4; ++j) {
      c.driver(0)->Submit(
          Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
                std::to_string((i * 4 + j) % 10)),
          [&](const middleware::TxnResult& r) {
            if (r.status.ok()) ++committed;
          });
    }
    c.sim.RunFor(50 * kMillisecond);
  }
  c.sim.RunFor(2 * kSecond);
  ASSERT_TRUE(c.replica(2)->crashed()) << "kill-mid-apply never fired";
  GlobalVersion watermark = c.replica(2)->persisted_watermark();
  EXPECT_GE(watermark, 20u) << "apply watermark persisted before the crash";

  c.replica(2)->Restart();
  // Recovery ran synchronously in Restart(): the scheduler must have been
  // reset — stale conflict keys from the crashed run could otherwise
  // impose phantom dependencies on the resumed stream.
  EXPECT_EQ(c.replica(2)->apply_scheduler().tracked_keys(), 0u)
      << "restart left stale conflict-key state in the apply scheduler";
  c.sim.RunFor(15 * kSecond);
  EXPECT_GE(c.replica(2)->recoveries(), 1);
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(c.Converged())
      << "parallel apply + crash-restart must still converge";
  EXPECT_EQ(c.replica(2)->engine()->ContentHash(),
            c.replica(0)->engine()->ContentHash());
}

// Every checkpoint record a replica's log holds, decoded from its bytes.
std::vector<CheckpointRecord> LoggedCheckpoints(middleware::ReplicaNode* r) {
  std::vector<CheckpointRecord> out;
  SegmentedBinlog* log = r->durable_log();
  for (const SegmentInfo& seg : log->segments()) {
    Result<std::string> bytes = log->store()->Read(seg.segment);
    EXPECT_TRUE(bytes.ok());
    if (!bytes.ok()) continue;
    std::string_view rest(bytes.value());
    RecordView view;
    while (!rest.empty() && ParseRecord(rest, &view).ok()) {
      if (view.type == RecordType::kCheckpoint) {
        Result<CheckpointRecord> cp = DecodeCheckpointPayload(view.payload);
        EXPECT_TRUE(cp.ok());
        if (cp.ok()) out.push_back(std::move(cp.value()));
      }
      rest.remove_prefix(view.frame_bytes);
    }
    EXPECT_TRUE(rest.empty()) << "segment " << seg.segment << " parses whole";
  }
  return out;
}

// Only a durable log is ever restored, so only it carries images. The
// others still log each checkpoint's version and digests, which GC and
// the status console read.
TEST_P(BinlogAllModesTest, CheckpointImagesOnlyInDurableLogs) {
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "not durable");
    middleware::ClusterOptions opts;
    opts.replicas = 3;
    opts.controller.mode = GetParam();
    opts.replica.binlog.durable = durable;
    opts.replica.binlog.checkpoint_every = 8;
    middleware::Cluster c(std::move(opts));
    c.Setup(AccountsSetup());
    c.Start();
    c.sim.RunFor(kSecond);
    for (int i = 0; i < 40; ++i) {
      c.driver(0)->Submit(
          Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
                std::to_string(i % 50)),
          [](const middleware::TxnResult&) {});
      c.sim.RunFor(50 * kMillisecond);
    }
    c.sim.RunFor(2 * kSecond);
    ASSERT_TRUE(c.Converged());
    uint64_t rows_per_image = durable ? 50 : 0;
    for (int i = 0; i < 3; ++i) {
      middleware::ReplicaNode* r = c.replica(i);
      std::vector<CheckpointRecord> cps = LoggedCheckpoints(r);
      ASSERT_FALSE(cps.empty()) << "replica " << i;
      for (const CheckpointRecord& cp : cps) {
        EXPECT_EQ(cp.image.RowCount(), rows_per_image) << "replica " << i;
        EXPECT_EQ(cp.image.databases.empty(), !durable);
        ASSERT_EQ(cp.digests.size(), 1u);
        EXPECT_EQ(cp.digests[0].first, "main.accounts");
      }
      BinlogStats st = r->DurableLogStats();
      EXPECT_EQ(st.checkpoint_version, cps.back().version);
      EXPECT_EQ(st.checkpoint_at_us, cps.back().taken_at_us);
      EXPECT_GE(st.checkpoints_appended, cps.size());
      EXPECT_EQ(st.checkpoint_image_rows,
                st.checkpoints_appended * rows_per_image);
      EXPECT_EQ(cps.back().digests, r->engine()->TableDigests());
    }
  }
}

TEST(BinlogDeathTest, ReplayDigestMismatchDumpsBinlogFlightState) {
  // A forged checkpoint whose digests disagree with its image must kill
  // the replica at recovery time (never serve from unverified state), and
  // the flight recorder dump must ride along with the abort, carrying the
  // binlog lifecycle events for the post-mortem.
  obs::FlightRecorder::InstallCheckHook();
  middleware::ClusterOptions opts;
  opts.controller.mode = middleware::ReplicationMode::kMasterSlaveAsync;
  opts.replica.binlog.durable = true;
  middleware::Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.sim.RunFor(kSecond);
  middleware::ReplicaNode* r = c.replica(2);
  engine::BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  Result<engine::BackupImage> image = r->engine()->Backup(bo);
  ASSERT_TRUE(image.ok());
  CheckpointRecord forged;
  forged.version = r->durable_log()->head_version();
  forged.image = image.TakeValue();
  forged.digests = {{"db.accounts", 0xdeadbeefu}};  // Lies about the image.
  ASSERT_TRUE(r->durable_log()->AppendCheckpoint(forged).ok());
  EXPECT_DEATH(
      {
        r->Crash();
        r->Restart();
      },
      "restored engine digests do not match checkpoint.*flight recorder.*"
      "binlog");
}

}  // namespace
}  // namespace replidb::binlog

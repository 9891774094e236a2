#include "replay.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "binlog/format.h"
#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "common/rng.h"
#include "counting_store.h"
#include "engine/rdbms.h"
#include "ship/codec.h"
#include "sim/simulator.h"
#include "sql/parser.h"

namespace replidb::perfbench {

namespace {

bool RunTxn(engine::Rdbms* eng, const std::vector<std::string>& statements) {
  Result<engine::SessionId> sid = eng->Connect();
  if (!sid.ok()) return false;
  bool ok = eng->Execute(sid.value(), "BEGIN").ok();
  for (const std::string& stmt : statements) {
    if (!ok) break;
    ok = eng->Execute(sid.value(), stmt).ok();
  }
  ok = ok && eng->Execute(sid.value(), "COMMIT").ok();
  if (!ok) eng->Execute(sid.value(), "ROLLBACK");
  eng->Disconnect(sid.value());
  return ok;
}

}  // namespace

SqlReplay ReplaySql(const Capture& cap, SpanRecorder* spans) {
  SqlReplay out;
  ScopedSpan span(spans, "replay.sql.parse");
  int64_t t0 = NowNs();
  for (const TxnRecord& t : cap.txns) {
    for (const std::string& stmt : t.request.statements) {
      if (!sql::Parse(stmt).ok()) ++out.errors;
      ++out.statements;
    }
  }
  out.ns = NowNs() - t0;
  span.set_items(out.statements);
  return out;
}

EngineReplay ReplayEngine(const Capture& cap, SpanRecorder* spans) {
  EngineReplay out;
  engine::Rdbms eng(cap.engine_options);
  for (const std::string& stmt : cap.setup) {
    Result<engine::SessionId> sid = eng.Connect();
    if (!sid.ok() || !eng.Execute(sid.value(), stmt).ok()) ++out.errors;
    if (sid.ok()) eng.Disconnect(sid.value());
  }
  std::vector<const TxnRecord*> writes, reads;
  for (const TxnRecord& t : cap.txns) {
    if (!t.committed) continue;
    (t.request.read_only ? reads : writes).push_back(&t);
  }
  std::stable_sort(writes.begin(), writes.end(),
                   [](const TxnRecord* a, const TxnRecord* b) {
                     return a->version < b->version;
                   });
  {
    ScopedSpan span(spans, "replay.engine.write");
    int64_t t0 = NowNs();
    for (const TxnRecord* t : writes) {
      if (!RunTxn(&eng, t->request.statements)) ++out.errors;
    }
    out.write_ns = NowNs() - t0;
    out.writes = writes.size();
    span.set_items(out.writes);
  }
  out.content_hash = eng.ContentHash();
  {
    ScopedSpan span(spans, "replay.engine.read");
    int64_t t0 = NowNs();
    for (const TxnRecord* t : reads) {
      if (!RunTxn(&eng, t->request.statements)) ++out.errors;
    }
    out.read_ns = NowNs() - t0;
    out.reads = reads.size();
    span.set_items(out.reads);
  }
  {
    // The checkpoint's Backup: metadata and sequences included.
    ScopedSpan span(spans, "replay.engine.backup");
    engine::BackupOptions bo;
    bo.include_metadata = true;
    bo.include_sequences = true;
    int64_t t0 = NowNs();
    if (!eng.Backup(bo).ok()) ++out.errors;
    out.backup_ns = NowNs() - t0;
    span.set_items(1);
  }
  return out;
}

BinlogReplay ReplayBinlog(const Capture& cap, SpanRecorder* spans) {
  BinlogReplay out;
  // Decode up front so the timed loops see only binlog work.
  struct Item {
    bool entry = true;
    middleware::ReplicationEntry e;
    binlog::CheckpointRecord cp;
    uint64_t slice = 0;
  };
  std::vector<Item> items;
  items.reserve(cap.log.size());
  for (const LoggedRecord& rec : cap.log) {
    Item it;
    it.slice = rec.slice;
    if (rec.type == binlog::RecordType::kEntry) {
      Result<middleware::ReplicationEntry> e =
          binlog::DecodeEntryPayload(rec.payload);
      if (!e.ok()) {
        out.ok = false;
        continue;
      }
      it.e = std::move(e.value());
      out.logged_versions.push_back(it.e.version);
    } else {
      Result<binlog::CheckpointRecord> cp =
          binlog::DecodeCheckpointPayload(rec.payload);
      if (!cp.ok()) {
        out.ok = false;
        continue;
      }
      it.entry = false;
      it.cp = std::move(cp.value());
    }
    items.push_back(std::move(it));
  }

  CountingLogStore store(std::make_unique<binlog::MemLogStore>());
  binlog::SegmentedBinlog log(&store, cap.log_options);
  ScopedSpan whole(spans, "replay.binlog");
  middleware::GlobalVersion last_shipped = 0;
  middleware::GlobalVersion prev_checkpoint = 0;
  bool seeded = false;
  size_t i = 0;
  while (i < items.size()) {
    uint64_t slice = items[i].slice;
    size_t end = i;
    while (end < items.size() && items[end].slice == slice) ++end;
    {
      ScopedSpan span(spans, "replay.binlog.append");
      uint64_t n = 0;
      for (; i < end; ++i) {
        Item& it = items[i];
        if (it.entry) {
          int64_t t0 = NowNs();
          if (!log.Append(it.e).ok()) out.ok = false;
          out.append_ns += NowNs() - t0;
          ++n;
          continue;
        }
        // A checkpoint, with the owner's GC rule: keep everything after
        // the previous checkpoint and, on a master, after the last
        // shipped version. The first one is the set-up baseline, which is
        // also where shipping starts.
        if (!log.AppendCheckpoint(it.cp).ok()) out.ok = false;
        if (!seeded) {
          last_shipped = it.cp.version;
          seeded = true;
        }
        middleware::GlobalVersion keep =
            std::min(it.cp.version, prev_checkpoint);
        if (cap.shipping) keep = std::min(keep, last_shipped);
        log.TruncateThrough(keep);
        prev_checkpoint = it.cp.version;
      }
      out.entries += n;
      span.set_items(n);
    }
    if (!cap.shipping || log.head_version() <= last_shipped) continue;
    ScopedSpan span(spans, "replay.binlog.ship_scan");
    uint64_t read0 = store.counts().bytes_read;
    uint64_t n = 0;
    int64_t t0 = NowNs();
    binlog::LogCursor cur = log.Cursor(last_shipped);
    middleware::ReplicationEntry e;
    while (cur.Next(&e)) {
      last_shipped = std::max(last_shipped, e.version);
      out.shipped_versions.push_back(e.version);
      ++n;
    }
    out.scan_ns += NowNs() - t0;
    if (!cur.status().ok()) out.ok = false;
    out.scan_bytes_read += store.counts().bytes_read - read0;
    out.shipped += n;
    span.set_items(n);
  }
  out.last_shipped = last_shipped;
  out.segments = SegmentBytes(store);
  return out;
}

CodecReplay ReplayCodec(const Capture& cap, SpanRecorder* spans) {
  CodecReplay out;
  std::vector<middleware::ReplicationEntry> entries;
  for (const LoggedRecord& rec : cap.log) {
    if (rec.type != binlog::RecordType::kEntry) continue;
    Result<middleware::ReplicationEntry> e =
        binlog::DecodeEntryPayload(rec.payload);
    if (e.ok()) entries.push_back(std::move(e.value()));
  }
  size_t per_batch = static_cast<size_t>(
      std::max(1.0, std::round(cap.mean_batch_entries)));
  std::vector<std::vector<middleware::ReplicationEntry>> batches;
  for (size_t i = 0; i < entries.size(); i += per_batch) {
    size_t end = std::min(entries.size(), i + per_batch);
    batches.emplace_back(entries.begin() + static_cast<std::ptrdiff_t>(i),
                         entries.begin() + static_cast<std::ptrdiff_t>(end));
  }
  std::vector<ship::EncodedBatch> encoded;
  encoded.reserve(batches.size());
  {
    ScopedSpan span(spans, "replay.ship.encode");
    int64_t t0 = NowNs();
    for (const auto& b : batches) {
      encoded.push_back(ship::EncodeBatch(b, cap.codec));
    }
    out.encode_ns = NowNs() - t0;
    span.set_items(entries.size());
  }
  std::vector<std::vector<middleware::ReplicationEntry>> decoded;
  decoded.reserve(batches.size());
  {
    ScopedSpan span(spans, "replay.ship.decode");
    int64_t t0 = NowNs();
    for (const ship::EncodedBatch& eb : encoded) {
      Result<std::vector<middleware::ReplicationEntry>> d =
          ship::DecodeBatch(eb.payload);
      if (!d.ok()) {
        out.roundtrip_ok = false;
        decoded.emplace_back();
        continue;
      }
      decoded.push_back(std::move(d.value()));
    }
    out.decode_ns = NowNs() - t0;
    span.set_items(entries.size());
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    if (decoded[b].size() != batches[b].size()) {
      out.roundtrip_ok = false;
      continue;
    }
    for (size_t k = 0; k < batches[b].size(); ++k) {
      const auto& x = batches[b][k];
      const auto& y = decoded[b][k];
      if (x.version != y.version || x.statements != y.statements ||
          x.writeset.SizeBytes() != y.writeset.SizeBytes()) {
        out.roundtrip_ok = false;
      }
    }
  }
  out.entries = entries.size();
  return out;
}

SimReplay ReplaySimulator(uint64_t events, uint64_t depth,
                          uint64_t events_per_txn, uint64_t seed,
                          SpanRecorder* spans) {
  SimReplay out;
  if (events == 0) return out;
  depth = std::max<uint64_t>(1, depth);
  events_per_txn = std::max<uint64_t>(1, events_per_txn);
  sim::Simulator s;
  Rng rng(seed);
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  sim::EventId timer = 0;
  auto gap = [&] {
    return static_cast<sim::Duration>(1 + rng.Uniform(2 * depth));
  };
  std::function<void()> event = [&] {
    ++fired;
    if (scheduled < events) {
      ++scheduled;
      s.Schedule(gap(), event);
    }
    if (fired % events_per_txn == 0) {
      if (timer != 0) s.Cancel(timer);
      timer = s.Schedule(5 * sim::kSecond, [] {});
    }
  };
  for (uint64_t k = 0; k < depth && scheduled < events; ++k) {
    ++scheduled;
    s.Schedule(gap(), event);
  }
  ScopedSpan span(spans, "replay.sim.dispatch");
  int64_t t0 = NowNs();
  while (fired < events && s.pending_events() > 0) {
    s.RunFor(10 * sim::kMillisecond);
  }
  out.ns = NowNs() - t0;
  out.events = s.events_executed();
  span.set_items(out.events);
  return out;
}

}  // namespace replidb::perfbench

#ifndef REPLIDB_PERFBENCH_REPLAY_H_
#define REPLIDB_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "middleware/common.h"
#include "spans.h"

namespace replidb::perfbench {

// Layer replays: the inputs one traced repetition captured, sent back
// through each layer's public functions outside the simulator, one pass
// each. Every replay times itself with one span (items = units of work)
// and returns what the checks compare against the run.

/// sql::Parse over every generated statement text.
struct SqlReplay {
  uint64_t statements = 0;
  uint64_t errors = 0;
  int64_t ns = 0;
};
SqlReplay ReplaySql(const Capture& cap, SpanRecorder* spans);

/// A standalone engine::Rdbms with the log owner's options, loaded with
/// the set-up statements: committed writes run in commit-version order
/// (BEGIN, statements, COMMIT, as a replica runs them), then every
/// committed read, then one Backup of the final state.
struct EngineReplay {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t errors = 0;
  int64_t write_ns = 0;
  int64_t read_ns = 0;
  int64_t backup_ns = 0;
  uint64_t content_hash = 0;
};
EngineReplay ReplayEngine(const Capture& cap, SpanRecorder* spans);

/// The log owner's records appended to a fresh SegmentedBinlog over a
/// CountingLogStore, slice by slice. Checkpoints are re-appended with the
/// run's segment GC rule. When the owner shipped, each slice ends the way
/// a master ship tick does: one cursor at the last shipped version,
/// drained to the end.
struct BinlogReplay {
  uint64_t entries = 0;
  int64_t append_ns = 0;  ///< Entry appends only.
  uint64_t shipped = 0;
  int64_t scan_ns = 0;
  uint64_t scan_bytes_read = 0;
  /// Versions of the entry records the run logged, and of those the
  /// replayed cursors yielded, in order.
  std::vector<middleware::GlobalVersion> logged_versions;
  std::vector<middleware::GlobalVersion> shipped_versions;
  middleware::GlobalVersion last_shipped = 0;
  std::vector<std::pair<uint64_t, std::string>> segments;
  bool ok = true;  ///< Every record decoded and every append succeeded.
};
BinlogReplay ReplayBinlog(const Capture& cap, SpanRecorder* spans);

/// ship::EncodeBatch / DecodeBatch over the logged entries, cut into
/// batches of the run's mean batch size.
struct CodecReplay {
  uint64_t entries = 0;
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  bool roundtrip_ok = true;
};
CodecReplay ReplayCodec(const Capture& cap, SpanRecorder* spans);

/// A fresh sim::Simulator driven through `events` dispatches at a steady
/// pending depth of `depth`: every event schedules its successor, and one
/// event in `events_per_txn` also arms a timeout and cancels the previous
/// one (the driver's per-request timer).
struct SimReplay {
  uint64_t events = 0;
  int64_t ns = 0;
};
SimReplay ReplaySimulator(uint64_t events, uint64_t depth,
                          uint64_t events_per_txn, uint64_t seed,
                          SpanRecorder* spans);

}  // namespace replidb::perfbench

#endif  // REPLIDB_PERFBENCH_REPLAY_H_

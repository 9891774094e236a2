// Checks for the benchmark's own machinery: span self time, the counting
// LogStore decorator, and the layer replays against the run they replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "binlog/log_store.h"
#include "counting_store.h"
#include "harness.h"
#include "replay.h"
#include "spans.h"

namespace replidb::perfbench {
namespace {

void Spin(int64_t ns) {
  int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

TEST(SpanRecorderTest, SelfTimeIsDurationMinusChildTime) {
  SpanRecorder rec;
  {
    ScopedSpan root(&rec, "root");
    Spin(200000);
    {
      ScopedSpan a(&rec, "a");
      Spin(300000);
      ScopedSpan grandchild(&rec, "a.inner");
      Spin(100000);
    }
    Spin(100000);
    ScopedSpan b(&rec, "b");
    b.set_items(7);
    Spin(200000);
  }
  const std::vector<Span>& s = rec.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 1);
  EXPECT_EQ(s[3].parent, 0);
  EXPECT_EQ(s[3].items, 7u);
  // The grandchild is covered by its parent, not subtracted twice.
  EXPECT_EQ(rec.SelfNs(0),
            s[0].duration_ns() - s[1].duration_ns() - s[3].duration_ns());
  EXPECT_EQ(rec.SelfNs(1), s[1].duration_ns() - s[2].duration_ns());
  EXPECT_EQ(rec.SelfNs(2), s[2].duration_ns());
  EXPECT_GE(rec.SelfNs(0), 300000);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i].duration_ns(), rec.SelfNs(static_cast<int>(i)));
  }
}

TEST(CountingLogStoreTest, CountsAppendsSyncsAndReadBytes) {
  CountingLogStore store(std::make_unique<binlog::MemLogStore>());
  ASSERT_TRUE(store.Create(0).ok());
  ASSERT_TRUE(store.Append(0, "abcd").ok());
  ASSERT_TRUE(store.Append(0, "ef").ok());
  ASSERT_TRUE(store.Sync(0).ok());
  Result<std::string> data = store.Read(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "abcdef");
  EXPECT_EQ(store.counts().appends, 2u);
  EXPECT_EQ(store.counts().bytes_appended, 6u);
  EXPECT_EQ(store.counts().syncs, 1u);
  EXPECT_EQ(store.counts().reads, 1u);
  EXPECT_EQ(store.counts().bytes_read, 6u);
}

/// A workload shortened to two virtual seconds of arrivals (enough for
/// one periodic checkpoint on ms_write_durable).
WorkloadSpec ShortSpec(const std::string& name) {
  WorkloadSpec spec;
  EXPECT_TRUE(FindWorkload(name, &spec));
  spec.traffic = 2 * sim::kSecond;
  return spec;
}

struct TracedRun {
  RepResult result;
  Capture capture;
};

TracedRun RunShort(const std::string& name, uint64_t seed) {
  TracedRun run;
  SpanRecorder spans;
  RepOptions opts;
  opts.spans = &spans;
  opts.capture = &run.capture;
  run.result = RunRepetition(ShortSpec(name), seed, opts);
  return run;
}

std::vector<middleware::GlobalVersion> CommittedWriteVersions(
    const Capture& cap) {
  std::vector<middleware::GlobalVersion> v;
  for (const TxnRecord& t : cap.txns) {
    if (t.committed && !t.request.read_only) v.push_back(t.version);
  }
  std::sort(v.begin(), v.end());
  return v;
}

class ReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplayTest, RunPassesGateAndRepeatsAtOneSeed) {
  TracedRun a = RunShort(GetParam(), 11);
  RepResult b = RunRepetition(ShortSpec(GetParam()), 11, RepOptions{});
  EXPECT_TRUE(a.result.GatePassed());
  EXPECT_GT(a.result.committed, 0u);
  // Tracing and capture must not move the simulated outcome.
  EXPECT_EQ(a.result.Fingerprint(), b.Fingerprint());
}

TEST_P(ReplayTest, BinlogReplayShipsExactlyTheLoggedEntries) {
  TracedRun run = RunShort(GetParam(), 5);
  const Capture& cap = run.capture;
  BinlogReplay bl = ReplayBinlog(cap, nullptr);
  ASSERT_TRUE(bl.ok);
  // The run logged one entry per committed write, in commit order.
  EXPECT_EQ(bl.logged_versions, CommittedWriteVersions(cap));
  EXPECT_FALSE(bl.logged_versions.empty());
  // Replaying the records rebuilds the owner's log byte for byte.
  EXPECT_EQ(bl.segments, cap.owner_segments);
  if (cap.shipping) {
    EXPECT_EQ(bl.shipped_versions, bl.logged_versions);
    EXPECT_EQ(bl.last_shipped, cap.owner_shipped_version);
    EXPECT_GT(bl.scan_bytes_read, 0u);
  } else {
    EXPECT_TRUE(bl.shipped_versions.empty());
  }
}

TEST_P(ReplayTest, EngineReplayReachesTheMasterContent) {
  TracedRun run = RunShort(GetParam(), 5);
  EngineReplay en = ReplayEngine(run.capture, nullptr);
  EXPECT_EQ(en.errors, 0u);
  EXPECT_GT(en.writes, 0u);
  EXPECT_EQ(en.content_hash, run.capture.owner_content_hash);
}

TEST_P(ReplayTest, CodecAndSqlReplaysRoundTrip) {
  TracedRun run = RunShort(GetParam(), 5);
  CodecReplay co = ReplayCodec(run.capture, nullptr);
  EXPECT_TRUE(co.roundtrip_ok);
  EXPECT_EQ(co.entries, CommittedWriteVersions(run.capture).size());
  SqlReplay sq = ReplaySql(run.capture, nullptr);
  EXPECT_EQ(sq.errors, 0u);
  EXPECT_EQ(sq.statements, run.result.statements);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReplayTest,
                         ::testing::Values("ms_ticket", "ms_write_durable",
                                           "mm_cert"));

TEST(SimReplayTest, DispatchesTheRequestedEvents) {
  SimReplay si = ReplaySimulator(20000, 50, 8, 3, nullptr);
  // Every requested event fires; the few extra are the per-txn timers
  // that outlived their cancellation window.
  EXPECT_GE(si.events, 20000u);
  EXPECT_LT(si.events, 20000u + 20000u / 8);
  EXPECT_GT(si.ns, 0);
}

}  // namespace
}  // namespace replidb::perfbench

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "middleware/cluster.h"
#include "sql/parser.h"
#include "workload/load_generator.h"
#include "workload/workloads.h"

namespace replidb::middleware {
namespace {

using sim::kMillisecond;
using sim::kSecond;

std::vector<std::string> AccountsSetup(int rows = 100) {
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

TxnRequest Write(const std::string& sql) {
  TxnRequest r;
  r.statements = {sql};
  r.read_only = false;
  return r;
}

TxnRequest Read(const std::string& sql) {
  TxnRequest r;
  r.statements = {sql};
  r.read_only = true;
  return r;
}

/// Submits a txn and runs the simulator until its result arrives.
TxnResult RunTxn(Cluster* c, TxnRequest req, int driver = 0) {
  TxnResult out;
  bool done = false;
  c->driver(driver)->Submit(std::move(req), [&](const TxnResult& r) {
    out = r;
    done = true;
  });
  for (int i = 0; i < 300 && !done; ++i) c->sim.RunFor(250 * kMillisecond);
  EXPECT_TRUE(done) << "transaction never completed";
  return out;
}

std::unique_ptr<Cluster> MakeCluster(ReplicationMode mode, int replicas = 3,
                                     ConsistencyLevel consistency =
                                         ConsistencyLevel::kSessionPCSI) {
  ClusterOptions opts;
  opts.replicas = replicas;
  opts.controller.mode = mode;
  opts.controller.consistency = consistency;
  auto c = std::make_unique<Cluster>(std::move(opts));
  c->Setup(AccountsSetup());
  c->Start();
  return c;
}

std::string ModeParamName(
    const ::testing::TestParamInfo<ReplicationMode>& info) {
  switch (info.param) {
    case ReplicationMode::kMasterSlaveAsync: return "MsAsync";
    case ReplicationMode::kMasterSlaveSync: return "MsSync";
    case ReplicationMode::kMultiMasterStatement: return "MmStmt";
    case ReplicationMode::kMultiMasterCertification: return "MmCert";
  }
  return "Unknown";
}

class AllModesTest : public ::testing::TestWithParam<ReplicationMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, AllModesTest,
    ::testing::Values(ReplicationMode::kMasterSlaveAsync,
                      ReplicationMode::kMasterSlaveSync,
                      ReplicationMode::kMultiMasterStatement,
                      ReplicationMode::kMultiMasterCertification),
    ModeParamName);

TEST_P(AllModesTest, WriteCommitsAndReadSeesIt) {
  auto c = MakeCluster(GetParam());
  TxnResult w = RunTxn(c.get(),
                       Write("UPDATE accounts SET balance = 555 WHERE id = 7"));
  ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  EXPECT_GT(w.version, 0u);
  TxnResult r = RunTxn(c.get(), Read("SELECT balance FROM accounts WHERE id = 7"));
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 555)
      << "session consistency: read-your-writes";
}

TEST_P(AllModesTest, AllReplicasConverge) {
  auto c = MakeCluster(GetParam());
  for (int i = 0; i < 20; ++i) {
    TxnResult w = RunTxn(
        c.get(), Write("UPDATE accounts SET balance = balance + 1 WHERE id = " +
                       std::to_string(i % 10)));
    ASSERT_TRUE(w.status.ok()) << w.status.ToString();
  }
  c->sim.RunFor(5 * kSecond);  // Drain async shipping / applies.
  EXPECT_TRUE(c->Converged()) << "replicas diverged under "
                              << ReplicationModeName(GetParam());
  EXPECT_EQ(c->TotalApplyErrors(), 0u);
}

TEST_P(AllModesTest, InsertsReplicate) {
  auto c = MakeCluster(GetParam());
  TxnResult w = RunTxn(c.get(), Write("INSERT INTO accounts VALUES (900, 1)"));
  ASSERT_TRUE(w.status.ok());
  c->sim.RunFor(5 * kSecond);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c->replica(i)->engine()->TableRowCount("main", "accounts"), 101u)
        << "replica " << i;
  }
}

TEST_P(AllModesTest, EngineErrorPropagatesToClient) {
  auto c = MakeCluster(GetParam());
  TxnResult w = RunTxn(c.get(), Write("INSERT INTO accounts VALUES (7, 0)"));
  EXPECT_EQ(w.status.code(), StatusCode::kConstraintViolation)
      << w.status.ToString();
  c->sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c->Converged());
}

TEST_P(AllModesTest, MultiStatementTransactionIsAtomic) {
  auto c = MakeCluster(GetParam());
  TxnRequest txn;
  txn.read_only = false;
  txn.statements = {
      "UPDATE accounts SET balance = balance - 50 WHERE id = 1",
      "UPDATE accounts SET balance = balance + 50 WHERE id = 2",
  };
  TxnResult w = RunTxn(c.get(), txn);
  ASSERT_TRUE(w.status.ok());
  c->sim.RunFor(5 * kSecond);
  TxnResult r = RunTxn(c.get(), Read("SELECT SUM(balance) FROM accounts"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 100 * 100) << "money conserved";
  EXPECT_TRUE(c->Converged());
}

// --- Master-slave specifics -------------------------------------------------

TEST(MasterSlaveTest, SlavesLagBehindMasterUntilShipped) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.replica.ship_interval = 500 * kMillisecond;  // Wide loss window.
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  ASSERT_TRUE(w.status.ok());
  // Immediately after the ack, slaves have not applied yet (1-safe).
  EXPECT_LT(c.replica(1)->applied_version(), w.version);
  c.sim.RunFor(2 * kSecond);
  EXPECT_GE(c.replica(1)->applied_version(), w.version);
}

TEST(MasterSlaveTest, TwoSafeWaitsForSlaveReceipt) {
  ClusterOptions a, b;
  for (auto* o : {&a, &b}) {
    o->replica.ship_interval = 200 * kMillisecond;
  }
  a.controller.mode = ReplicationMode::kMasterSlaveAsync;
  b.controller.mode = ReplicationMode::kMasterSlaveSync;
  Cluster ca(std::move(a)), cb(std::move(b));
  for (Cluster* c : {&ca, &cb}) {
    c->Setup(AccountsSetup());
    c->Start();
  }
  TxnResult w_async =
      RunTxn(&ca, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  TxnResult w_sync =
      RunTxn(&cb, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  ASSERT_TRUE(w_async.status.ok());
  ASSERT_TRUE(w_sync.status.ok());
  EXPECT_GT(w_sync.latency, w_async.latency)
      << "2-safe must pay the slave round trip (§2.2)";
}

TEST(MasterSlaveTest, FailoverPromotesSlaveAndWritesResume) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 1 WHERE id = 0")).status.ok());
  c.sim.RunFor(2 * kSecond);
  net::NodeId old_master = c.controller->master();
  c.replica(0)->Crash();  // Master is replica index 0 (node id 1).
  c.sim.RunFor(3 * kSecond);
  EXPECT_NE(c.controller->master(), old_master);
  EXPECT_EQ(c.controller->stats().failovers, 1u);
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = 2 WHERE id = 0"));
  EXPECT_TRUE(w.status.ok()) << "writes must resume on the new master: "
                             << w.status.ToString();
}

TEST(MasterSlaveTest, OneSafeLosesUnshippedCommitsOnFailover) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.replica.ship_interval = 10 * kSecond;  // Nothing ships in time.
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = 9 WHERE id = " +
                                 std::to_string(i)))
                    .status.ok());
  }
  c.replica(0)->Crash();
  c.sim.RunFor(3 * kSecond);
  EXPECT_EQ(c.controller->stats().lost_transactions, 5u)
      << "all five acked commits were inside the unshipped window";
}

TEST(MasterSlaveTest, TwoSafeLosesNothingOnFailover) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveSync;
  opts.replica.ship_interval = 10 * kSecond;  // Periodic shipping idle...
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 5; ++i) {
    // ...but 2-safe ships at commit: every ack implies slave receipt.
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = 9 WHERE id = " +
                                 std::to_string(i)))
                    .status.ok());
  }
  c.replica(0)->Crash();
  c.sim.RunFor(3 * kSecond);
  EXPECT_EQ(c.controller->stats().lost_transactions, 0u);
}

TEST(MasterSlaveTest, CrashedSlaveResyncsAndConverges) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.replica(2)->Crash();
  c.sim.RunFor(2 * kSecond);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = balance + 1 "
                                 "WHERE id = " + std::to_string(i)))
                    .status.ok());
  }
  c.replica(2)->Restart();
  c.sim.RunFor(10 * kSecond);
  EXPECT_EQ(c.controller->replica_state(3), Controller::ReplicaState::kOnline);
  EXPECT_GE(c.controller->stats().resyncs_completed, 1u);
  EXPECT_TRUE(c.Converged()) << "rejoined slave must catch up";
}

// --- Consistency levels -------------------------------------------------------

TEST(ConsistencyTest, EventualReadsCanBeStale) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kEventual;
  opts.controller.reads_on_master = false;  // Force slave reads.
  opts.replica.ship_interval = 2 * kSecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 777 WHERE id = 3")).status.ok());
  TxnResult r = RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 100) << "stale slave read is allowed";
  EXPECT_GE(r.staleness, 1u);
}

TEST(ConsistencyTest, SessionPcsiGuaranteesReadYourWrites) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kSessionPCSI;
  opts.controller.reads_on_master = false;
  opts.replica.ship_interval = 300 * kMillisecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 777 WHERE id = 3")).status.ok());
  TxnResult r = RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 777)
      << "session PCSI must wait for the session's own write";
}

TEST(ConsistencyTest, OtherSessionMayStillReadStaleUnderPcsi) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kSessionPCSI;
  opts.controller.reads_on_master = false;
  opts.replica.ship_interval = 2 * kSecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  ASSERT_TRUE(
      RunTxn(&c, Write("UPDATE accounts SET balance = 777 WHERE id = 3"), 0)
          .status.ok());
  TxnResult r =
      RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"), 1);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.rows[0][0].AsInt(), 100)
      << "PCSI is per-session; another session may read older state";
}

TEST(ConsistencyTest, StrongSiNeverServesStaleReads) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  opts.controller.consistency = ConsistencyLevel::kStrongSI;
  opts.replica.ship_interval = 300 * kMillisecond;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = " +
                                 std::to_string(i) + " WHERE id = 3"), 0)
                    .status.ok());
    TxnResult r =
        RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 3"), 1);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.rows[0][0].AsInt(), i) << "strong SI read must be fresh";
  }
  EXPECT_EQ(c.controller->max_read_staleness(), 0u);
}

// --- Statement-mode non-determinism (§4.3.2) ---------------------------------

TEST(StatementModeTest, NowIsRewrittenAndReplicasConverge) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  opts.clock_skew_per_replica = 1000000;  // 1 s skew per replica.
  Cluster c(std::move(opts));
  c.Setup({"CREATE TABLE events (id INT PRIMARY KEY, ts INT)"});
  c.Start();
  TxnResult w = RunTxn(&c, Write("INSERT INTO events VALUES (1, NOW())"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged())
      << "NOW() must be rewritten to a literal before broadcast";
}

TEST(StatementModeTest, PerRowRandIsRefusedByDefault) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = RAND()"));
  EXPECT_EQ(w.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.controller->stats().rejected_nondeterministic, 1u);
}

TEST(StatementModeTest, PerRowRandDivergesWhenBroadcastAnyway) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  opts.controller.nondeterminism = NonDeterminismPolicy::kBroadcastAnyway;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = RAND()"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_FALSE(c.Converged())
      << "the paper's UPDATE t SET x=rand() example must diverge";
  EXPECT_EQ(c.controller->stats().unsafe_broadcasts, 1u);
}

TEST(StatementModeTest, UnorderedLimitSubqueryDiverges) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  opts.controller.nondeterminism = NonDeterminismPolicy::kBroadcastAnyway;
  Cluster c(std::move(opts));
  std::vector<std::string> setup = {
      "CREATE TABLE foo (id INT PRIMARY KEY, keyvalue TEXT)"};
  std::string batch = "INSERT INTO foo VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i) batch += ", ";
    batch += "(" + std::to_string(i) + ", NULL)";
  }
  setup.push_back(batch);
  c.Setup(setup);
  c.Start();
  // The paper's exact example.
  TxnResult w = RunTxn(&c, Write(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL LIMIT 10)"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_FALSE(c.Converged())
      << "LIMIT without ORDER BY picks different rows per replica";
}

TEST(StatementModeTest, OrderedLimitSubqueryStaysConsistent) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMultiMasterStatement;
  Cluster c(std::move(opts));
  std::vector<std::string> setup = {
      "CREATE TABLE foo (id INT PRIMARY KEY, keyvalue TEXT)"};
  std::string batch = "INSERT INTO foo VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i) batch += ", ";
    batch += "(" + std::to_string(i) + ", NULL)";
  }
  setup.push_back(batch);
  c.Setup(setup);
  c.Start();
  TxnResult w = RunTxn(&c, Write(
      "UPDATE foo SET keyvalue = 'x' WHERE id IN "
      "(SELECT id FROM foo WHERE keyvalue = NULL ORDER BY id LIMIT 10)"));
  ASSERT_TRUE(w.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged()) << "ORDER BY makes the LIMIT deterministic";
}

// --- Certification mode --------------------------------------------------------

TEST(CertificationTest, ConflictingConcurrentWritesOneAborts) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.driver.max_retries = 0;  // Surface the conflict.
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  c.driver(0)->Submit(Write("UPDATE accounts SET balance = 1 WHERE id = 5"),
                      [&](const TxnResult& r) { r1 = r; d1 = true; });
  c.driver(1)->Submit(Write("UPDATE accounts SET balance = 2 WHERE id = 5"),
                      [&](const TxnResult& r) { r2 = r; d2 = true; });
  c.sim.RunFor(10 * kSecond);
  ASSERT_TRUE(d1 && d2);
  int ok_count = (r1.status.ok() ? 1 : 0) + (r2.status.ok() ? 1 : 0);
  EXPECT_EQ(ok_count, 1) << "exactly one of two conflicting writes commits: "
                         << r1.status.ToString() << " / "
                         << r2.status.ToString();
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged());
}

TEST(CertificationTest, NonConflictingConcurrentWritesBothCommit) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.driver.max_retries = 0;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  c.driver(0)->Submit(Write("UPDATE accounts SET balance = 1 WHERE id = 5"),
                      [&](const TxnResult& r) { r1 = r; d1 = true; });
  c.driver(1)->Submit(Write("UPDATE accounts SET balance = 2 WHERE id = 6"),
                      [&](const TxnResult& r) { r2 = r; d2 = true; });
  c.sim.RunFor(10 * kSecond);
  ASSERT_TRUE(d1 && d2);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged());
}

TEST(CertificationTest, DriverRetriesConflictsTransparently) {
  ClusterOptions opts;
  opts.drivers = 2;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.driver.max_retries = 5;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  TxnResult r1, r2;
  bool d1 = false, d2 = false;
  c.driver(0)->Submit(
      Write("UPDATE accounts SET balance = balance + 1 WHERE id = 5"),
      [&](const TxnResult& r) { r1 = r; d1 = true; });
  c.driver(1)->Submit(
      Write("UPDATE accounts SET balance = balance + 1 WHERE id = 5"),
      [&](const TxnResult& r) { r2 = r; d2 = true; });
  c.sim.RunFor(10 * kSecond);
  ASSERT_TRUE(d1 && d2);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok()) << "retry absorbs the certification abort";
  c.sim.RunFor(5 * kSecond);
  TxnResult check = RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 5"));
  EXPECT_EQ(check.rows[0][0].AsInt(), 102) << "both increments applied once";
}

// --- Management / SPOF ----------------------------------------------------------

TEST(ManagementTest, AddReplicaOnlineAndServes) {
  ClusterOptions opts;
  opts.controller.mode = ReplicationMode::kMasterSlaveAsync;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunTxn(&c, Write("UPDATE accounts SET balance = balance + 1 "
                                 "WHERE id = " + std::to_string(i)))
                    .status.ok());
  }
  // Brand-new empty node.
  engine::RdbmsOptions eopts = c.options.engine;
  eopts.name = "replica-new";
  eopts.physical_seed = 7777;
  ReplicaNode fresh(&c.sim, c.network.get(), 50, eopts, c.options.replica);
  Status add_status = Status::Internal("callback never fired");
  c.controller->AddReplica(&fresh, /*donor=*/2,
                           [&](Status s) { add_status = s; });
  c.sim.RunFor(20 * kSecond);
  ASSERT_TRUE(add_status.ok()) << add_status.ToString();
  EXPECT_EQ(c.controller->replica_state(50), Controller::ReplicaState::kOnline);
  EXPECT_EQ(fresh.engine()->ContentHash(),
            c.replica(0)->engine()->ContentHash())
      << "cloned replica must match the cluster";
}

TEST(ManagementTest, BackupViaControllerReturnsImage) {
  auto c = MakeCluster(ReplicationMode::kMasterSlaveAsync);
  bool done = false;
  c->controller->StartBackup(2, engine::BackupOptions{},
                             [&](Result<engine::BackupImage> image) {
                               ASSERT_TRUE(image.ok());
                               EXPECT_FALSE(image.value().databases.empty());
                               done = true;
                             });
  c->sim.RunFor(10 * kSecond);
  EXPECT_TRUE(done);
}

TEST(SpofTest, ControllerCrashTakesDownService) {
  auto c = MakeCluster(ReplicationMode::kMasterSlaveAsync);
  ASSERT_TRUE(
      RunTxn(c.get(), Write("UPDATE accounts SET balance = 1 WHERE id = 0")).status.ok());
  c->controller->Crash();
  TxnResult r = RunTxn(c.get(), Read("SELECT balance FROM accounts WHERE id = 0"));
  EXPECT_FALSE(r.status.ok())
      << "with the (unreplicated) controller down, everything is down (§3.2)";
  c->controller->Restart();
  c->sim.RunFor(2 * kSecond);
  TxnResult r2 = RunTxn(c.get(), Read("SELECT balance FROM accounts WHERE id = 0"));
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
}

TEST(QuorumTest, MajorityLossRefusesWrites) {
  ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  opts.controller.require_majority_for_writes = true;
  opts.controller.heartbeat.period = 200 * kMillisecond;
  opts.controller.heartbeat.timeout = 150 * kMillisecond;
  opts.controller.heartbeat.miss_threshold = 2;
  opts.driver.max_retries = 0;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  c.replica(1)->Crash();
  c.replica(2)->Crash();
  c.sim.RunFor(3 * kSecond);
  TxnResult w = RunTxn(&c, Write("UPDATE accounts SET balance = 1 WHERE id = 0"));
  EXPECT_EQ(w.status.code(), StatusCode::kNoQuorum) << w.status.ToString();
}

// --- Load balancing -----------------------------------------------------------

TEST(LoadBalancingTest, ReadsSpreadAcrossReplicas) {
  ClusterOptions opts;
  opts.controller.load_balance = LoadBalancePolicy::kRoundRobin;
  Cluster c(std::move(opts));
  c.Setup(AccountsSetup());
  c.Start();
  uint64_t before[3];
  for (int i = 0; i < 3; ++i) {
    before[i] = c.replica(i)->engine()->stats().statements_executed;
  }
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        RunTxn(&c, Read("SELECT balance FROM accounts WHERE id = 1")).status.ok());
  }
  for (int i = 0; i < 3; ++i) {
    uint64_t served =
        c.replica(i)->engine()->stats().statements_executed - before[i];
    EXPECT_GT(served, 0u) << "replica " << i << " served no reads";
  }
}

// --- Replication log retention --------------------------------------------------

// The durable log is each replica's only retained replication log: every
// ship tick drains the engine's commit outbox. Sampled once per ship
// interval, no replica holds more pending commits than it made since the
// previous sample (each commit takes exactly one commit_seq).
TEST_P(AllModesTest, EngineHoldsAtMostOneShipIntervalOfCommits) {
  const sim::Duration interval = 10 * kMillisecond;
  ClusterOptions opts;
  opts.controller.mode = GetParam();
  opts.replica.ship_interval = interval;
  Cluster c(std::move(opts));
  workload::MicroWorkload::Options wo;
  wo.rows = 200;
  wo.write_fraction = 0.5;
  workload::MicroWorkload w(wo);
  c.Setup(w.SetupStatements());
  c.Start();
  workload::OpenLoopGenerator gen(&c.sim, c.driver(), &w, /*rate_tps=*/400,
                                  /*seed=*/3);
  gen.Arm(c.sim.Now() + 2 * kSecond);
  std::vector<engine::CommitSeq> prev;
  for (const auto& r : c.replicas) {
    prev.push_back(r->engine()->last_commit_seq());
  }
  for (int tick = 0; tick < 300; ++tick) {
    c.sim.RunFor(interval);
    for (size_t i = 0; i < c.replicas.size(); ++i) {
      const engine::Rdbms* db = c.replicas[i]->engine();
      ASSERT_LE(db->binlog().size(), db->last_commit_seq() - prev[i])
          << "replica " << i + 1 << " at tick " << tick;
      prev[i] = db->last_commit_seq();
    }
  }
  EXPECT_GT(gen.stats().committed, 300u);
  EXPECT_TRUE(c.Converged());
}

// --- Parse once --------------------------------------------------------------

// Controller parse count, then each replica engine's.
std::vector<uint64_t> ParseCounts(const Cluster& c) {
  std::vector<uint64_t> out{c.controller->stats().statements_parsed};
  for (const auto& r : c.replicas) {
    out.push_back(r->engine()->stats().statements_parsed);
  }
  return out;
}

// A few dozen mixed transactions: point reads, single- and two-statement
// writes, a subquery write, and a write sent with read_only set (the
// classifier must still route it as a write).
std::vector<TxnRequest> MixedTraffic() {
  std::vector<TxnRequest> out;
  for (int i = 0; i < 36; ++i) {
    std::string id = std::to_string(i % 20);
    switch (i % 6) {
      case 0:
      case 1:
        out.push_back(Read("SELECT balance FROM accounts WHERE id = " + id));
        break;
      case 2:
        out.push_back(
            Write("UPDATE accounts SET balance = balance + 1 WHERE id = " + id));
        break;
      case 3: {
        TxnRequest txn;
        txn.statements = {
            "UPDATE accounts SET balance = balance - 5 WHERE id = " + id,
            "SELECT balance FROM accounts WHERE id = " + id,
        };
        out.push_back(std::move(txn));
        break;
      }
      case 4:
        out.push_back(Write(
            "UPDATE accounts SET balance = balance + 2 WHERE id IN "
            "(SELECT id FROM accounts WHERE id < 3)"));
        break;
      default: {
        TxnRequest mislabelled =
            Read("UPDATE accounts SET balance = balance + 3 WHERE id = " + id);
        out.push_back(std::move(mislabelled));
        break;
      }
    }
  }
  return out;
}

class ParseOnceTest : public ::testing::TestWithParam<ReplicationMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, ParseOnceTest,
    ::testing::Values(ReplicationMode::kMasterSlaveAsync,
                      ReplicationMode::kMasterSlaveSync,
                      ReplicationMode::kMultiMasterCertification),
    ModeParamName);

// The controller parses each client statement exactly once, and the
// replicas run that parse: after set-up, no replica engine parses SQL text
// at all — not the statements, not BEGIN/COMMIT, not the applies.
TEST_P(ParseOnceTest, ControllerParsesEachStatementOnceReplicasNever) {
  auto c = MakeCluster(GetParam());
  std::vector<uint64_t> before = ParseCounts(*c);
  uint64_t statements = 0;
  uint64_t writes = 0;
  for (TxnRequest& req : MixedTraffic()) {
    statements += req.statements.size();
    TxnResult r = RunTxn(c.get(), std::move(req));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.retries, 0);
    if (r.version > 0) ++writes;
  }
  c->sim.RunFor(5 * kSecond);
  EXPECT_EQ(writes, 24u) << "mislabelled writes must route as writes";
  EXPECT_TRUE(c->Converged());
  EXPECT_EQ(c->TotalApplyErrors(), 0u);
  std::vector<uint64_t> after = ParseCounts(*c);
  EXPECT_EQ(after[0] - before[0], statements) << "controller parses";
  for (size_t i = 1; i < after.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 0u) << "replica " << i << " parsed";
  }
}

// A statement the controller cannot parse still runs as text, and the
// replica reports the parse error exactly as the engine always did.
TEST_P(ParseOnceTest, UnparsableStatementFailsOnTheReplicaWithItsParseError) {
  auto c = MakeCluster(GetParam());
  const std::string bad = "UPDATE accounts SET WHERE";
  std::vector<uint64_t> before = ParseCounts(*c);
  TxnResult r = RunTxn(c.get(), Read(bad));
  EXPECT_EQ(r.status.ToString(), sql::Parse(bad).status().ToString());
  std::vector<uint64_t> after = ParseCounts(*c);
  EXPECT_EQ(after[0] - before[0], 1u);
  uint64_t replica_parses = 0;
  for (size_t i = 1; i < after.size(); ++i) {
    replica_parses += after[i] - before[i];
  }
  EXPECT_EQ(replica_parses, 1u) << "only the executing replica parses it";
}

// Statement mode keeps its documented re-parse: the controller parses each
// write again to rewrite it, and every replica parses the rewritten text
// of every write. Reads still run the controller's parse.
TEST(ParseOnceStatementModeTest, ReplicasParseTheRewrittenWrites) {
  auto c = MakeCluster(ReplicationMode::kMultiMasterStatement);
  std::vector<uint64_t> before = ParseCounts(*c);
  uint64_t statements = 0;
  uint64_t write_statements = 0;
  for (TxnRequest& req : MixedTraffic()) {
    statements += req.statements.size();
    TxnResult r = RunTxn(c.get(), req);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.retries, 0);
    if (r.version > 0) write_statements += req.statements.size();
  }
  c->sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c->Converged());
  std::vector<uint64_t> after = ParseCounts(*c);
  EXPECT_EQ(after[0] - before[0], statements + write_statements);
  for (size_t i = 1; i < after.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], write_statements) << "replica " << i;
  }
}

// --- End-to-end under load ------------------------------------------------------

TEST(EndToEndTest, TicketBrokerWorkloadRunsCleanAndConverges) {
  ClusterOptions opts;
  opts.replicas = 3;
  opts.controller.mode = ReplicationMode::kMultiMasterCertification;
  Cluster c(std::move(opts));
  workload::TicketBrokerWorkload::Options wo;
  wo.items = 300;
  workload::TicketBrokerWorkload w(wo);
  c.Setup(w.SetupStatements());
  c.Start();
  workload::OpenLoopGenerator gen(&c.sim, c.driver(), &w, /*rate_tps=*/300,
                                  /*seed=*/5);
  gen.Run(20 * kSecond);
  const workload::RunStats& stats = gen.stats();
  EXPECT_GT(stats.committed, 4000u);
  EXPECT_LT(stats.AbortRate(), 0.01);
  c.sim.RunFor(5 * kSecond);
  EXPECT_TRUE(c.Converged());
  EXPECT_GT(stats.latency_ms.Mean(), 0.0);
}

}  // namespace
}  // namespace replidb::middleware

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/rdbms.h"
#include "engine/table.h"
#include "sql/parser.h"

namespace replidb::engine {
namespace {

using sql::Value;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RdbmsOptions opts;
    opts.name = "test-db";
    db_ = std::make_unique<Rdbms>(opts);
    session_ = db_->Connect().value();
  }

  ExecResult Exec(const std::string& sql) { return db_->Execute(session_, sql); }

  ExecResult MustExec(const std::string& sql) {
    ExecResult r = Exec(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status.ToString();
    return r;
  }

  void MakeAccounts() {
    MustExec("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner TEXT)");
    MustExec("INSERT INTO accounts VALUES (1, 100, 'alice'), (2, 200, 'bob'), "
             "(3, 300, 'carol')");
  }

  std::unique_ptr<Rdbms> db_;
  SessionId session_ = 0;
};

// --- Basic DDL/DML -----------------------------------------------------------

TEST_F(EngineTest, CreateInsertSelect) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT * FROM accounts ORDER BY id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"id", "balance", "owner"}));
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[2][2].AsString(), "carol");
}

TEST_F(EngineTest, SelectWithWhereAndProjection) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT owner, balance * 2 FROM accounts WHERE balance >= 200 ORDER BY balance");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "bob");
  EXPECT_EQ(r.rows[0][1].AsInt(), 400);
}

TEST_F(EngineTest, UpdateAffectsMatchingRows) {
  MakeAccounts();
  ExecResult r = MustExec("UPDATE accounts SET balance = balance + 10 WHERE id <= 2");
  EXPECT_EQ(r.affected, 2);
  ExecResult check = MustExec("SELECT balance FROM accounts ORDER BY id");
  EXPECT_EQ(check.rows[0][0].AsInt(), 110);
  EXPECT_EQ(check.rows[1][0].AsInt(), 210);
  EXPECT_EQ(check.rows[2][0].AsInt(), 300);
}

TEST_F(EngineTest, DeleteRemovesRows) {
  MakeAccounts();
  ExecResult r = MustExec("DELETE FROM accounts WHERE balance > 150");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 1u);
}

TEST_F(EngineTest, Aggregates) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), AVG(balance) FROM accounts");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 600);
  EXPECT_EQ(r.rows[0][2].AsInt(), 100);
  EXPECT_EQ(r.rows[0][3].AsInt(), 300);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 200.0);
}

TEST_F(EngineTest, AggregatesOnEmptyTable) {
  MustExec("CREATE TABLE t (x INT)");
  ExecResult r = MustExec("SELECT COUNT(*), SUM(x), AVG(x) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(EngineTest, OrderByDescAndLimit) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT id FROM accounts ORDER BY balance DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
}

TEST_F(EngineTest, PrimaryKeyUniqueness) {
  MakeAccounts();
  ExecResult r = Exec("INSERT INTO accounts VALUES (1, 0, 'dup')");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

TEST_F(EngineTest, UniqueColumnEnforced) {
  MustExec("CREATE TABLE u (id INT PRIMARY KEY, email TEXT UNIQUE)");
  MustExec("INSERT INTO u VALUES (1, 'a@x.com')");
  ExecResult r = Exec("INSERT INTO u VALUES (2, 'a@x.com')");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, NotNullEnforced) {
  MustExec("CREATE TABLE n (id INT PRIMARY KEY, v TEXT NOT NULL)");
  ExecResult r = Exec("INSERT INTO n VALUES (1, NULL)");
  EXPECT_EQ(r.status.code(), StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, MultiRowInsertIsAtomicPerStatement) {
  MakeAccounts();
  // Third row duplicates PK 1: the whole statement must be undone.
  ExecResult r = Exec("INSERT INTO accounts VALUES (10, 1, 'x'), (11, 2, 'y'), (1, 3, 'dup')");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

TEST_F(EngineTest, AutoIncrementAssignsAndLeavesHoles) {
  MustExec("CREATE TABLE seqt (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  MustExec("INSERT INTO seqt (v) VALUES ('a')");
  MustExec("INSERT INTO seqt (v) VALUES ('b')");
  // Failed statement consumes an id (the paper's "holes" behaviour).
  Exec("INSERT INTO seqt (id, v) VALUES (2, 'dup')");
  MustExec("INSERT INTO seqt (v) VALUES ('c')");
  ExecResult r = MustExec("SELECT id FROM seqt ORDER BY id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
  EXPECT_EQ(r.rows[2][0].AsInt(), 3);
}

TEST_F(EngineTest, DropTable) {
  MakeAccounts();
  MustExec("DROP TABLE accounts");
  EXPECT_FALSE(Exec("SELECT * FROM accounts").ok());
  MustExec("DROP TABLE IF EXISTS accounts");
  EXPECT_FALSE(Exec("DROP TABLE accounts").ok());
}

// --- Transactions -------------------------------------------------------------

TEST_F(EngineTest, CommitMakesChangesVisibleToOthers) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  // Other session still sees the old value.
  ExecResult before = db_->Execute(other, "SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(before.rows[0][0].AsInt(), 100);
  MustExec("COMMIT");
  ExecResult after = db_->Execute(other, "SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(after.rows[0][0].AsInt(), 0);
}

TEST_F(EngineTest, RollbackDiscardsChanges) {
  MakeAccounts();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("INSERT INTO accounts VALUES (9, 9, 'z')");
  MustExec("ROLLBACK");
  ExecResult r = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 100);
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

TEST_F(EngineTest, WriteWriteConflictAbortsNoWait) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");
  db_->Execute(other, "BEGIN");
  ExecResult r = db_->Execute(other, "UPDATE accounts SET balance = 2 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlock);
  MustExec("COMMIT");
}

TEST_F(EngineTest, SnapshotIsolationRepeatableRead) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  ASSERT_TRUE(db_->SetIsolation(session_, IsolationLevel::kSnapshot).ok());
  MustExec("BEGIN");
  ExecResult r1 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  // Concurrent committed update.
  db_->Execute(other, "UPDATE accounts SET balance = 999 WHERE id = 1");
  ExecResult r2 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r1.rows[0][0].AsInt(), r2.rows[0][0].AsInt()) << "snapshot must not move";
  MustExec("COMMIT");
}

TEST_F(EngineTest, ReadCommittedSeesNewCommits) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  MustExec("BEGIN");
  ExecResult r1 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r1.rows[0][0].AsInt(), 100);
  db_->Execute(other, "UPDATE accounts SET balance = 999 WHERE id = 1");
  ExecResult r2 = MustExec("SELECT balance FROM accounts WHERE id = 1");
  EXPECT_EQ(r2.rows[0][0].AsInt(), 999) << "read-committed re-snapshots";
  MustExec("COMMIT");
}

TEST_F(EngineTest, SiFirstUpdaterWins) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(session_, IsolationLevel::kSnapshot);
  db_->SetIsolation(other, IsolationLevel::kSnapshot);
  MustExec("BEGIN");
  MustExec("SELECT * FROM accounts");  // Take the snapshot.
  // Other transaction updates and commits the row first.
  db_->Execute(other, "UPDATE accounts SET balance = 5 WHERE id = 1");
  ExecResult r = Exec("UPDATE accounts SET balance = 6 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kConflict);
}

TEST_F(EngineTest, SiAllowsWriteSkew) {
  // The classic SI anomaly: two txns each read both rows, write different
  // rows; both commit under SI (would be forbidden under 1SR).
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(session_, IsolationLevel::kSnapshot);
  db_->SetIsolation(other, IsolationLevel::kSnapshot);
  MustExec("BEGIN");
  db_->Execute(other, "BEGIN");
  MustExec("SELECT SUM(balance) FROM accounts");
  db_->Execute(other, "SELECT SUM(balance) FROM accounts");
  EXPECT_TRUE(Exec("UPDATE accounts SET balance = 0 WHERE id = 1").ok());
  EXPECT_TRUE(db_->Execute(other, "UPDATE accounts SET balance = 0 WHERE id = 2").ok());
  EXPECT_TRUE(Exec("COMMIT").ok());
  EXPECT_TRUE(db_->Execute(other, "COMMIT").ok());
}

TEST_F(EngineTest, SerializableForbidsWriteSkew) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(session_, IsolationLevel::kSerializable);
  db_->SetIsolation(other, IsolationLevel::kSerializable);
  MustExec("BEGIN");
  db_->Execute(other, "BEGIN");
  MustExec("SELECT SUM(balance) FROM accounts");
  db_->Execute(other, "SELECT SUM(balance) FROM accounts");
  // Table-granularity 2PL: the second writer hits the other's read lock.
  ExecResult w1 = Exec("UPDATE accounts SET balance = 0 WHERE id = 1");
  EXPECT_EQ(w1.status.code(), StatusCode::kDeadlock);
}

TEST_F(EngineTest, SerializableReadersBlockWritersNoWait) {
  MakeAccounts();
  SessionId other = db_->Connect().value();
  db_->SetIsolation(other, IsolationLevel::kSerializable);
  db_->Execute(other, "BEGIN");
  db_->Execute(other, "SELECT * FROM accounts");
  db_->SetIsolation(session_, IsolationLevel::kSerializable);
  MustExec("BEGIN");
  ExecResult r = Exec("UPDATE accounts SET balance = 1 WHERE id = 1");
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlock);
  db_->Execute(other, "COMMIT");
}

// --- Dialect behaviour profiles (§4.1.2) ---------------------------------------

TEST(DialectTest, PostgresPoisonsTransactionOnError) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::PostgresLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
  db.Execute(s, "BEGIN");
  db.Execute(s, "INSERT INTO t VALUES (1)");
  ExecResult bad = db.Execute(s, "INSERT INTO t VALUES (1)");  // Dup.
  EXPECT_FALSE(bad.ok());
  ExecResult next = db.Execute(s, "INSERT INTO t VALUES (2)");
  EXPECT_EQ(next.status.code(), StatusCode::kAborted)
      << "poisoned transaction must reject further statements";
  ExecResult commit = db.Execute(s, "COMMIT");
  EXPECT_EQ(commit.status.code(), StatusCode::kAborted);
  EXPECT_EQ(db.TableRowCount("main", "t"), 0u) << "everything rolled back";
}

TEST(DialectTest, MysqlContinuesAfterError) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::MysqlLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
  db.Execute(s, "BEGIN");
  db.Execute(s, "INSERT INTO t VALUES (1)");
  ExecResult bad = db.Execute(s, "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(bad.ok());
  ExecResult next = db.Execute(s, "INSERT INTO t VALUES (2)");
  EXPECT_TRUE(next.ok()) << "MySQL-like keeps the transaction alive";
  EXPECT_TRUE(db.Execute(s, "COMMIT").ok());
  EXPECT_EQ(db.TableRowCount("main", "t"), 2u);
}

TEST(DialectTest, NoSnapshotIsolationFallsBackToReadCommitted) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::MysqlLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  ASSERT_TRUE(db.SetIsolation(s, IsolationLevel::kSnapshot).ok());
  EXPECT_EQ(db.EffectiveIsolation(s), IsolationLevel::kReadCommitted);
}

TEST(DialectTest, SybaseRefusesTempTablesInTransactions) {
  RdbmsOptions opts;
  opts.dialect = DialectProfile::SybaseLike();
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "BEGIN");
  ExecResult r = db.Execute(s, "CREATE TEMPORARY TABLE tmp (x INT)");
  EXPECT_EQ(r.status.code(), StatusCode::kNotSupported);
}

// --- Temporary tables (§4.1.4) --------------------------------------------------

TEST_F(EngineTest, TempTablesAreSessionScoped) {
  MustExec("CREATE TEMPORARY TABLE tmp (k INT, v TEXT)");
  MustExec("INSERT INTO tmp VALUES (1, 'x')");
  SessionId other = db_->Connect().value();
  ExecResult r = db_->Execute(other, "SELECT * FROM tmp");
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound)
      << "temp table must be invisible to other sessions";
}

TEST_F(EngineTest, TempTablesDroppedOnDisconnect) {
  MustExec("CREATE TEMPORARY TABLE tmp (k INT)");
  MustExec("INSERT INTO tmp VALUES (1)");
  db_->Disconnect(session_);
  session_ = db_->Connect().value();
  EXPECT_FALSE(Exec("SELECT * FROM tmp").ok());
}

TEST_F(EngineTest, TempTableShadowsRealTable) {
  MustExec("CREATE TABLE t (x INT)");
  MustExec("INSERT INTO t VALUES (42)");
  MustExec("CREATE TEMPORARY TABLE t (x INT)");
  ExecResult r = MustExec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0) << "temp table shadows the real one";
}

TEST_F(EngineTest, TempTableWritesNotInBinlogOrWriteset) {
  MustExec("CREATE TEMPORARY TABLE tmp (k INT)");
  size_t before = db_->binlog().size();
  MustExec("BEGIN");
  MustExec("INSERT INTO tmp VALUES (1)");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  EXPECT_TRUE(ws->ops.empty()) << "temp-table writes invisible to replication";
  MustExec("COMMIT");
  // The statement text IS recorded (statement replication would replay it);
  // row capture is what's missing — the gap the paper describes.
  EXPECT_GE(db_->binlog().size(), before);
}

// --- Sequences (§4.2.3) -----------------------------------------------------------

TEST_F(EngineTest, SequencesAdvanceAndSurviveRollback) {
  MustExec("CREATE SEQUENCE s START 10");
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  MustExec("BEGIN");
  MustExec("INSERT INTO t VALUES (NEXTVAL('s'))");
  MustExec("ROLLBACK");
  // The draw is not returned: next use sees a hole.
  MustExec("INSERT INTO t VALUES (NEXTVAL('s'))");
  ExecResult r = MustExec("SELECT id FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 11) << "sequence hole after rollback";
  EXPECT_EQ(db_->SequenceValue("main", "s"), 12);
}

TEST_F(EngineTest, MissingSequenceErrors) {
  MustExec("CREATE TABLE t (id INT)");
  EXPECT_FALSE(Exec("INSERT INTO t VALUES (NEXTVAL('nope'))").ok());
}

// --- Multi-database (§4.1.1) ---------------------------------------------------

TEST_F(EngineTest, MultiDatabaseQueries) {
  MustExec("CREATE DATABASE reporting");
  MustExec("CREATE TABLE reporting.daily (d INT, total INT)");
  MustExec("INSERT INTO reporting.daily VALUES (1, 5)");
  ExecResult r = MustExec("SELECT total FROM reporting.daily WHERE d = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
}

TEST_F(EngineTest, CrossDatabaseTransaction) {
  MakeAccounts();
  MustExec("CREATE DATABASE audit");
  MustExec("CREATE TABLE audit.log (id INT PRIMARY KEY AUTO_INCREMENT, note TEXT)");
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("INSERT INTO audit.log (note) VALUES ('zeroed')");
  MustExec("ROLLBACK");
  EXPECT_EQ(db_->TableRowCount("audit", "log"), 0u)
      << "cross-database transaction must roll back atomically";
}

// --- Triggers (§4.1.1 / §4.1.5) ---------------------------------------------------

TEST_F(EngineTest, TriggerWritesToAnotherDatabase) {
  MakeAccounts();
  MustExec("CREATE DATABASE reporting");
  MustExec("CREATE TABLE reporting.changes (id INT PRIMARY KEY AUTO_INCREMENT, acct INT)");
  TriggerDef t;
  t.name = "audit_updates";
  t.database = "main";
  t.table = "accounts";
  t.event = WriteOpKind::kUpdate;
  t.action = [](Rdbms* db, SessionId sid, const WriteOp& op) {
    return db->Execute(sid, "INSERT INTO reporting.changes (acct) VALUES (" +
                                op.primary_key.ToString() + ")")
        .status;
  };
  db_->RegisterTrigger(std::move(t));
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 2");
  EXPECT_EQ(db_->TableRowCount("reporting", "changes"), 1u);
}

TEST_F(EngineTest, PerUserTriggerOnlyFiresForThatUser) {
  MakeAccounts();
  db_->CreateUser("batch");
  MustExec("CREATE TABLE audit_rows (n INT)");
  TriggerDef t;
  t.name = "only_batch";
  t.database = "main";
  t.table = "accounts";
  t.event = WriteOpKind::kUpdate;
  t.only_for_user = "batch";
  t.action = [](Rdbms* db, SessionId sid, const WriteOp&) {
    return db->Execute(sid, "INSERT INTO audit_rows VALUES (1)").status;
  };
  db_->RegisterTrigger(std::move(t));
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");  // admin session.
  EXPECT_EQ(db_->TableRowCount("main", "audit_rows"), 0u);
  SessionId batch = db_->Connect("batch").value();
  db_->Execute(batch, "UPDATE accounts SET balance = 2 WHERE id = 1");
  EXPECT_EQ(db_->TableRowCount("main", "audit_rows"), 1u)
      << "the same SQL has a different effect per user (§4.1.5)";
}

TEST_F(EngineTest, FailedStatementFiresNoTriggers) {
  MakeAccounts();
  MustExec("CREATE TABLE audit_rows (n INT)");
  TriggerDef t;
  t.name = "on_insert";
  t.database = "main";
  t.table = "accounts";
  t.event = WriteOpKind::kInsert;
  t.action = [](Rdbms* db, SessionId sid, const WriteOp&) {
    return db->Execute(sid, "INSERT INTO audit_rows VALUES (1)").status;
  };
  db_->RegisterTrigger(std::move(t));
  Exec("INSERT INTO accounts VALUES (50, 0, 'x'), (1, 0, 'dup')");  // Fails.
  EXPECT_EQ(db_->TableRowCount("main", "audit_rows"), 0u);
}

// --- Stored procedures (§4.2.1) ------------------------------------------------

TEST_F(EngineTest, StoredProcedureRunsInCallerTransaction) {
  MakeAccounts();
  db_->RegisterProcedure("transfer", [](ProcedureContext* ctx) {
    int64_t from = ctx->args()[0].AsInt();
    int64_t to = ctx->args()[1].AsInt();
    int64_t amount = ctx->args()[2].AsInt();
    ExecResult r1 = ctx->Exec("UPDATE accounts SET balance = balance - " +
                              std::to_string(amount) + " WHERE id = " +
                              std::to_string(from));
    if (!r1.ok()) return r1.status;
    return ctx->Exec("UPDATE accounts SET balance = balance + " +
                     std::to_string(amount) + " WHERE id = " +
                     std::to_string(to))
        .status;
  });
  MustExec("CALL transfer(1, 2, 50)");
  ExecResult r = MustExec("SELECT balance FROM accounts ORDER BY id");
  EXPECT_EQ(r.rows[0][0].AsInt(), 50);
  EXPECT_EQ(r.rows[1][0].AsInt(), 250);
}

TEST_F(EngineTest, StoredProcedureRollsBackWithTransaction) {
  MakeAccounts();
  db_->RegisterProcedure("zero_all", [](ProcedureContext* ctx) {
    return ctx->Exec("UPDATE accounts SET balance = 0").status;
  });
  MustExec("BEGIN");
  MustExec("CALL zero_all()");
  MustExec("ROLLBACK");
  ExecResult r = MustExec("SELECT SUM(balance) FROM accounts");
  EXPECT_EQ(r.rows[0][0].AsInt(), 600);
}

TEST_F(EngineTest, UnknownProcedureFails) {
  EXPECT_EQ(Exec("CALL nope()").status.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ProcedureInnerStatementsAreBinlogged) {
  MakeAccounts();
  db_->RegisterProcedure("bump", [](ProcedureContext* ctx) {
    return ctx->Exec("UPDATE accounts SET balance = balance + 1 WHERE id = 1")
        .status;
  });
  size_t before = db_->binlog().size();
  MustExec("CALL bump()");
  ASSERT_EQ(db_->binlog().size(), before + 1);
  const BinlogEntry& e = db_->binlog().back();
  ASSERT_EQ(e.statements.size(), 1u);
  EXPECT_EQ(e.statements[0].find("CALL"), std::string::npos)
      << "inner statements, not the CALL, are logged";
  EXPECT_NE(e.statements[0].find("UPDATE"), std::string::npos);
}

// --- Binlog & writesets --------------------------------------------------------

TEST_F(EngineTest, BinlogRecordsCommittedTransactions) {
  MakeAccounts();
  size_t base = db_->binlog().size();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("INSERT INTO accounts VALUES (7, 70, 'g')");
  MustExec("COMMIT");
  ASSERT_EQ(db_->binlog().size(), base + 1);
  const BinlogEntry& e = db_->binlog().back();
  EXPECT_EQ(e.statements.size(), 2u);
  EXPECT_EQ(e.writeset.ops.size(), 2u);
  EXPECT_EQ(e.session_user, "admin");
}

TEST_F(EngineTest, TakeBinlogHandsOverCommitsInOrderAndEmptiesOutbox) {
  MakeAccounts();
  MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");
  MustExec("UPDATE accounts SET balance = 2 WHERE id = 2");
  std::vector<BinlogEntry> taken = db_->TakeBinlog();
  EXPECT_TRUE(db_->binlog().empty());
  ASSERT_EQ(taken.size(), 4u) << "CREATE, INSERT and two UPDATEs";
  for (size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i].commit_seq, i + 1) << "commit order";
  }
  EXPECT_EQ(taken.back().writeset.ops.at(0).primary_key.AsInt(), 2);

  MustExec("UPDATE accounts SET balance = 3 WHERE id = 3");
  taken = db_->TakeBinlog();
  ASSERT_EQ(taken.size(), 1u) << "only commits since the last take";
  EXPECT_EQ(taken[0].commit_seq, 5u);
  EXPECT_TRUE(db_->TakeBinlog().empty());
}

TEST_F(EngineTest, RestoreEmptiesTheCommitOutbox) {
  MakeAccounts();
  BackupImage img = db_->Backup(BackupOptions{}).value();
  Rdbms clone(RdbmsOptions{});
  Result<SessionId> s = clone.Connect();
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(
      clone.Execute(s.value(), "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  clone.Disconnect(s.value());
  ASSERT_FALSE(clone.binlog().empty());
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_TRUE(clone.binlog().empty());
}

TEST_F(EngineTest, RolledBackTransactionNotInBinlog) {
  MakeAccounts();
  size_t base = db_->binlog().size();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 0 WHERE id = 1");
  MustExec("ROLLBACK");
  EXPECT_EQ(db_->binlog().size(), base);
}

TEST_F(EngineTest, WritesetCapturesAfterImages) {
  MakeAccounts();
  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 42 WHERE id = 2");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  ASSERT_EQ(ws->ops.size(), 1u);
  EXPECT_EQ(ws->ops[0].kind, WriteOpKind::kUpdate);
  EXPECT_EQ(ws->ops[0].primary_key.AsInt(), 2);
  EXPECT_EQ(ws->ops[0].after[1].AsInt(), 42);
  MustExec("COMMIT");
}

TEST_F(EngineTest, WritesetIncompleteWithoutPrimaryKey) {
  MustExec("CREATE TABLE nopk (x INT)");
  MustExec("BEGIN");
  MustExec("INSERT INTO nopk VALUES (1)");
  const Writeset* ws = db_->CurrentWriteset(session_);
  ASSERT_NE(ws, nullptr);
  EXPECT_TRUE(ws->incomplete);
  MustExec("COMMIT");
}

TEST_F(EngineTest, ApplyWritesetReplaysOnAnotherReplica) {
  MakeAccounts();
  // Second replica with the same schema and data.
  RdbmsOptions opts2;
  opts2.name = "replica2";
  opts2.physical_seed = 99;
  Rdbms db2(opts2);
  SessionId s2 = db2.Connect().value();
  db2.Execute(s2, "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner TEXT)");
  db2.Execute(s2, "INSERT INTO accounts VALUES (1, 100, 'alice'), (2, 200, 'bob'), (3, 300, 'carol')");
  EXPECT_EQ(db_->ContentHash(), db2.ContentHash());

  MustExec("BEGIN");
  MustExec("UPDATE accounts SET balance = 7 WHERE id = 1");
  MustExec("DELETE FROM accounts WHERE id = 3");
  MustExec("INSERT INTO accounts VALUES (4, 40, 'dan')");
  Writeset ws = *db_->CurrentWriteset(session_);
  MustExec("COMMIT");

  ASSERT_TRUE(db2.ApplyWriteset(ws).ok());
  EXPECT_EQ(db_->ContentHash(), db2.ContentHash())
      << "replica content must converge after writeset apply";
}

TEST_F(EngineTest, ContentHashIgnoresPhysicalOrder) {
  RdbmsOptions a, b;
  a.physical_seed = 1;
  b.physical_seed = 2;
  Rdbms dba(a), dbb(b);
  SessionId sa = dba.Connect().value(), sb = dbb.Connect().value();
  for (Rdbms* db : {&dba, &dbb}) {
    SessionId s = (db == &dba) ? sa : sb;
    db->Execute(s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)");
    db->Execute(s, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')");
  }
  EXPECT_EQ(dba.ContentHash(), dbb.ContentHash());
}

TEST_F(EngineTest, PhysicalOrderDiffersAcrossSeeds) {
  RdbmsOptions a, b;
  a.physical_seed = 1;
  b.physical_seed = 2;
  Rdbms dba(a), dbb(b);
  SessionId sa = dba.Connect().value(), sb = dbb.Connect().value();
  std::string fill = "INSERT INTO t VALUES ";
  for (int i = 0; i < 20; ++i) {
    fill += (i ? ", (" : "(") + std::to_string(i) + ")";
  }
  for (Rdbms* db : {&dba, &dbb}) {
    SessionId s = (db == &dba) ? sa : sb;
    db->Execute(s, "CREATE TABLE t (id INT PRIMARY KEY)");
    db->Execute(s, fill);
  }
  ExecResult ra = dba.Execute(sa, "SELECT id FROM t LIMIT 5");
  ExecResult rb = dbb.Execute(sb, "SELECT id FROM t LIMIT 5");
  ASSERT_EQ(ra.rows.size(), 5u);
  ASSERT_EQ(rb.rows.size(), 5u);
  bool same = true;
  for (size_t i = 0; i < 5; ++i) {
    same = same && ra.rows[i][0].AsInt() == rb.rows[i][0].AsInt();
  }
  EXPECT_FALSE(same) << "unordered LIMIT picks different rows per replica";
}

// --- Cached physical order ----------------------------------------------------

// The physical order as Scan computed it before the order was cached:
// every visible row, sorted by the splitmix64 finalizer of rid ^ seed.
// Get() reads visibility one RowId at a time, independent of the cache.
uint64_t OracleMix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::pair<RowId, sql::Row>> OracleScan(const VersionedTable& t,
                                                   const TxnView& view,
                                                   RowId max_rid,
                                                   uint64_t seed) {
  std::vector<std::pair<uint64_t, std::pair<RowId, sql::Row>>> hits;
  for (RowId rid = 1; rid <= max_rid; ++rid) {
    Result<sql::Row> row = t.Get(view, rid);
    if (row.ok()) hits.push_back({OracleMix64(rid ^ seed), {rid, row.value()}});
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<RowId, sql::Row>> out;
  for (auto& h : hits) out.push_back(std::move(h.second));
  return out;
}

TEST(PhysicalOrderTest, ScanAndScanRowsMatchTheSortOracle) {
  sql::ColumnDef id;
  id.name = "id";
  id.primary_key = true;
  sql::ColumnDef v;
  v.name = "v";
  TableSchema schema;
  schema.name = "t";
  schema.columns = {id, v};
  schema.primary_key_index = 0;
  for (uint64_t seed : {0ULL, 7ULL, 0x5eedULL}) {
    VersionedTable table(schema, seed);
    Rng rng(seed + 1);
    CommitSeq committed = 0;
    TxnId next_txn = 1;
    RowId max_rid = 0;
    std::vector<TxnView> open;
    auto check = [&](const std::string& step) {
      std::vector<TxnView> views = open;
      TxnView latest;
      latest.snapshot = committed;
      latest.level = IsolationLevel::kSnapshot;
      views.push_back(latest);
      for (const TxnView& view : views) {
        std::vector<std::pair<RowId, sql::Row>> want =
            OracleScan(table, view, max_rid, seed);
        std::vector<std::pair<RowId, sql::Row>> got;
        table.Scan(view, &got, nullptr);
        ASSERT_EQ(got, want) << step << " txn " << view.id;
        std::vector<sql::Row> rows;
        table.ScanRows(view, &rows);
        ASSERT_EQ(rows.size(), want.size()) << step;
        for (size_t i = 0; i < rows.size(); ++i) {
          ASSERT_EQ(rows[i], want[i].second) << step << " row " << i;
        }
      }
    };
    for (int step = 0; step < 1500; ++step) {
      uint64_t op = rng.Uniform(10);
      if (open.empty() || (op == 0 && open.size() < 4)) {
        TxnView txn;
        txn.id = next_txn++;
        txn.snapshot = committed;
        txn.level = rng.Chance(0.5) ? IsolationLevel::kSnapshot
                                    : IsolationLevel::kReadCommitted;
        open.push_back(txn);
        continue;
      }
      size_t pick = rng.Uniform(open.size());
      TxnView& txn = open[pick];
      sql::Row row = {sql::Value::Int(rng.UniformRange(0, 60)),
                      sql::Value::Int(rng.UniformRange(0, 1000))};
      std::string name;
      if (op <= 3) {
        name = "insert";
        Result<RowId> rid = table.Insert(txn, row, nullptr);
        if (rid.ok()) max_rid = std::max(max_rid, rid.value());
      } else if (op <= 5 && max_rid > 0) {
        name = "update";
        RowId rid = static_cast<RowId>(rng.UniformRange(1, max_rid));
        (void)table.Update(txn, rid, row, nullptr);
      } else if (op == 6 && max_rid > 0) {
        name = "delete";
        RowId rid = static_cast<RowId>(rng.UniformRange(1, max_rid));
        (void)table.Delete(txn, rid, nullptr);
      } else if (op == 7) {
        name = "rollback";
        table.RollbackTxn(txn.id);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Commit with inline vacuum up to the oldest open snapshot.
        name = "commit";
        TxnId id = txn.id;
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
        CommitSeq horizon = committed + 1;
        for (const TxnView& o : open) horizon = std::min(horizon, o.snapshot);
        table.CommitTxn(id, ++committed, horizon);
      }
      check(name + " at step " + std::to_string(step));
    }
  }
}

TEST_F(EngineTest, BackupRowsFollowTheScanOrder) {
  MustExec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Rng rng(11);
  SessionId other = db_->Connect().value();
  for (int step = 0; step < 300; ++step) {
    SessionId s = rng.Chance(0.5) ? session_ : other;
    int64_t k = rng.UniformRange(0, 40);
    std::string key = std::to_string(k);
    switch (rng.Uniform(5)) {
      case 0:
        Exec("INSERT INTO t VALUES (" + key + ", " + key + ")");
        break;
      case 1:
        db_->Execute(s, "BEGIN");
        db_->Execute(s, "INSERT INTO t VALUES (" + key + ", 0)");
        db_->Execute(s, "ROLLBACK");
        break;
      case 2:
        db_->Execute(s, "UPDATE t SET v = v + 1 WHERE id = " + key);
        break;
      case 3:
        db_->Execute(s, "DELETE FROM t WHERE id = " + key);
        break;
      default:
        db_->Execute(s, "BEGIN");
        db_->Execute(s, "UPDATE t SET v = v + 2 WHERE id = " + key);
        db_->Execute(s, "COMMIT");
        break;
    }
    ExecResult all = MustExec("SELECT * FROM t");
    BackupImage img = db_->Backup(BackupOptions{}).value();
    ASSERT_EQ(img.databases.size(), 1u);
    ASSERT_EQ(img.databases[0].tables.size(), 1u);
    ASSERT_EQ(img.databases[0].tables[0].rows, all.rows) << "step " << step;
    EXPECT_EQ(img.RowCount(), all.rows.size());
  }
}

// --- Backup / restore (§4.4.1, §4.1.5) -------------------------------------------

TEST_F(EngineTest, BackupRestoreRoundTrip) {
  MakeAccounts();
  BackupOptions bo;
  bo.include_metadata = true;
  bo.include_sequences = true;
  BackupImage img = db_->Backup(bo).value();
  RdbmsOptions opts2;
  opts2.name = "clone";
  Rdbms clone(opts2);
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_EQ(clone.TableRowCount("main", "accounts"), 3u);
  EXPECT_EQ(clone.ContentHash(), db_->ContentHash());
}

TEST_F(EngineTest, MetadataLessBackupLosesUsers) {
  db_->CreateUser("app");
  MakeAccounts();
  BackupImage img = db_->Backup(BackupOptions{}).value();  // Data only.
  RdbmsOptions opts2;
  opts2.name = "clone";
  opts2.enforce_authentication = true;
  Rdbms clone(opts2);
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_FALSE(clone.Connect("app").ok())
      << "cloned replica rejects app users: the §4.1.5 trap";
  EXPECT_TRUE(clone.Connect("admin").ok());
}

TEST_F(EngineTest, SequenceLessBackupResetsSequences) {
  MustExec("CREATE SEQUENCE s START 1");
  MustExec("CREATE TABLE t (id INT PRIMARY KEY)");
  for (int i = 0; i < 5; ++i) MustExec("INSERT INTO t VALUES (NEXTVAL('s'))");
  BackupImage img = db_->Backup(BackupOptions{}).value();
  Rdbms clone(RdbmsOptions{});
  ASSERT_TRUE(clone.Restore(img).ok());
  EXPECT_EQ(clone.SequenceValue("main", "s"), 0)
      << "sequences are not part of the transactional dump (§4.2.3)";
  BackupOptions with;
  with.include_sequences = true;
  BackupImage img2 = db_->Backup(with).value();
  Rdbms clone2(RdbmsOptions{});
  ASSERT_TRUE(clone2.Restore(img2).ok());
  EXPECT_EQ(clone2.SequenceValue("main", "s"), 6);
}

TEST_F(EngineTest, RestoreRequiresNoSessions) {
  MakeAccounts();
  BackupImage img = db_->Backup(BackupOptions{}).value();
  EXPECT_FALSE(db_->Restore(img).ok()) << "open session blocks restore";
  db_->Disconnect(session_);
  EXPECT_TRUE(db_->Restore(img).ok());
  session_ = db_->Connect().value();
  EXPECT_EQ(db_->TableRowCount("main", "accounts"), 3u);
}

// --- Faults ----------------------------------------------------------------------

TEST_F(EngineTest, DiskFullFailsWrites) {
  MakeAccounts();
  db_->set_disk_full(true);
  EXPECT_EQ(Exec("INSERT INTO accounts VALUES (9, 9, 'z')").status.code(),
            StatusCode::kDiskFull);
  EXPECT_TRUE(Exec("SELECT * FROM accounts").ok()) << "reads still work";
  db_->set_disk_full(false);
  EXPECT_TRUE(Exec("INSERT INTO accounts VALUES (9, 9, 'z')").ok());
}

TEST_F(EngineTest, AuthenticationEnforcement) {
  RdbmsOptions opts;
  opts.enforce_authentication = true;
  Rdbms db(opts);
  EXPECT_FALSE(db.Connect("ghost").ok());
  db.CreateUser("ghost");
  EXPECT_TRUE(db.Connect("ghost").ok());
}

// --- Non-determinism at the engine level -----------------------------------------

TEST_F(EngineTest, RandDiffersAcrossReplicas) {
  RdbmsOptions a, b;
  a.rand_seed = 1;
  b.rand_seed = 2;
  Rdbms dba(a), dbb(b);
  SessionId sa = dba.Connect().value(), sb = dbb.Connect().value();
  for (auto [db, s] : {std::pair{&dba, sa}, std::pair{&dbb, sb}}) {
    db->Execute(s, "CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE)");
    db->Execute(s, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)");
    db->Execute(s, "UPDATE t SET x = RAND()");
  }
  EXPECT_NE(dba.ContentHash(), dbb.ContentHash())
      << "per-row RAND() must diverge across replicas (§4.3.2)";
}

TEST_F(EngineTest, NowUsesConfiguredClock) {
  int64_t fake_now = 5'000'000;
  RdbmsOptions opts;
  opts.clock = [&fake_now] { return fake_now; };
  Rdbms db(opts);
  SessionId s = db.Connect().value();
  db.Execute(s, "CREATE TABLE t (ts INT)");
  db.Execute(s, "INSERT INTO t VALUES (NOW())");
  ExecResult r = db.Execute(s, "SELECT ts FROM t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5'000'000);
}

TEST_F(EngineTest, StatsCount) {
  MakeAccounts();
  Exec("INSERT INTO accounts VALUES (1, 0, 'dup')");
  const RdbmsStats& st = db_->stats();
  EXPECT_GT(st.transactions_committed, 0u);
  EXPECT_GT(st.statement_errors, 0u);
}

TEST_F(EngineTest, CostModelChargesStatements) {
  MakeAccounts();
  ExecResult r = MustExec("SELECT * FROM accounts");
  EXPECT_GT(r.cost_us, 0);
  ExecResult w = MustExec("UPDATE accounts SET balance = 1 WHERE id = 1");
  EXPECT_GT(w.cost_us, 0);
}

// --- Shared parsed statements ---------------------------------------------

std::vector<std::string> FirstColumn(const ExecResult& r) {
  std::vector<std::string> out;
  for (const sql::Row& row : r.rows) out.push_back(row[0].AsString());
  return out;
}

// One parsed statement serves many executions: the controller parses a
// statement once and every replica runs that same object. The IN-subquery
// memo is keyed by AST node address, so it must not outlive one execution:
// a committed write to the subquery's table between two runs of the same
// object must show in the second, exactly as a fresh parse of the text.
TEST_F(EngineTest, OneParsedStatementRunsTwiceLikeItsText) {
  MakeAccounts();
  MustExec("CREATE TABLE vip (id INT PRIMARY KEY)");
  MustExec("INSERT INTO vip VALUES (1)");
  const std::string text =
      "SELECT owner FROM accounts WHERE id IN (SELECT id FROM vip) "
      "ORDER BY id";
  Result<sql::Statement> parsed = sql::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sql::Statement& stmt = parsed.value();
  const uint64_t parses = db_->stats().statements_parsed;

  ExecResult first = db_->ExecuteStmt(session_, stmt);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(db_->stats().statements_parsed, parses) << "ExecuteStmt parsed";
  ExecResult first_text = MustExec(text);
  EXPECT_EQ(FirstColumn(first), FirstColumn(first_text));
  EXPECT_EQ(first.cost_us, first_text.cost_us);
  EXPECT_EQ(FirstColumn(first), std::vector<std::string>{"alice"});

  MustExec("INSERT INTO vip VALUES (3)");
  ExecResult second = db_->ExecuteStmt(session_, stmt);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  ExecResult second_text = MustExec(text);
  EXPECT_EQ(FirstColumn(second), FirstColumn(second_text));
  EXPECT_EQ(second.cost_us, second_text.cost_us);
  EXPECT_EQ(FirstColumn(second), (std::vector<std::string>{"alice", "carol"}))
      << "a stale subquery memo survived into the second execution";
}

// The same object on two engines with different subquery contents: each
// run sees its own engine's rows.
TEST_F(EngineTest, OneParsedStatementRunsOnTwoEngines) {
  RdbmsOptions opts;
  opts.name = "other-db";
  Rdbms other(opts);
  SessionId other_session = other.Connect().value();
  const char* setup[] = {
      "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT, owner TEXT)",
      "INSERT INTO accounts VALUES (1, 100, 'alice'), (2, 200, 'bob'), "
      "(3, 300, 'carol')",
      "CREATE TABLE vip (id INT PRIMARY KEY)",
  };
  for (const char* sql : setup) {
    MustExec(sql);
    ASSERT_TRUE(other.Execute(other_session, sql).ok()) << sql;
  }
  MustExec("INSERT INTO vip VALUES (1)");
  ASSERT_TRUE(other.Execute(other_session, "INSERT INTO vip VALUES (2)").ok());

  const std::string text =
      "SELECT owner FROM accounts WHERE id IN (SELECT id FROM vip) "
      "ORDER BY id";
  Result<sql::Statement> parsed = sql::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sql::Statement& stmt = parsed.value();

  ExecResult here = db_->ExecuteStmt(session_, stmt);
  ExecResult there = other.ExecuteStmt(other_session, stmt);
  ASSERT_TRUE(here.ok()) << here.status.ToString();
  ASSERT_TRUE(there.ok()) << there.status.ToString();
  EXPECT_EQ(FirstColumn(here), std::vector<std::string>{"alice"});
  EXPECT_EQ(FirstColumn(there), std::vector<std::string>{"bob"});
  EXPECT_EQ(FirstColumn(here), FirstColumn(MustExec(text)));
  EXPECT_EQ(FirstColumn(there),
            FirstColumn(other.Execute(other_session, text)));
  // And back again on the first engine, after the second used it.
  EXPECT_EQ(FirstColumn(db_->ExecuteStmt(session_, stmt)),
            std::vector<std::string>{"alice"});
}

// The transaction-control wrappers are the parsed branches of
// Execute("BEGIN"/"COMMIT"/"ROLLBACK"): same effect and cost, no parse.
TEST_F(EngineTest, ControlWrappersMatchTheirTextWithoutParsing) {
  MakeAccounts();
  const uint64_t parses = db_->stats().statements_parsed;
  ExecResult begin = db_->Begin(session_);
  ASSERT_TRUE(begin.ok());
  EXPECT_TRUE(db_->InTransaction(session_));
  ExecResult rollback = db_->Rollback(session_);
  EXPECT_FALSE(db_->InTransaction(session_));
  ASSERT_TRUE(db_->Begin(session_).ok());
  const uint64_t commits = db_->stats().transactions_committed;
  ExecResult commit = db_->Commit(session_);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(db_->stats().transactions_committed, commits + 1);
  EXPECT_EQ(db_->stats().statements_parsed, parses);

  EXPECT_EQ(begin.cost_us, MustExec("BEGIN").cost_us);
  EXPECT_EQ(rollback.cost_us, MustExec("ROLLBACK").cost_us);
  MustExec("BEGIN");
  EXPECT_EQ(commit.cost_us, MustExec("COMMIT").cost_us);
  EXPECT_EQ(db_->stats().statements_parsed, parses + 4);
}

}  // namespace
}  // namespace replidb::engine

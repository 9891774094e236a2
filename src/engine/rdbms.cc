#include "engine/rdbms.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace replidb::engine {

namespace {

/// Engine-level registry handles, resolved once, aggregated across every
/// Rdbms instance (per-replica detail lives in the middleware layer).
struct EngineMetrics {
  obs::Counter* statements;
  obs::Counter* commits;
  obs::Counter* aborts;

  static EngineMetrics& Get() {
    static EngineMetrics m;
    return m;
  }

 private:
  EngineMetrics() {
    auto& r = obs::MetricsRegistry::Global();
    statements = r.GetCounter("engine.txn.statements");
    commits = r.GetCounter("engine.txn.commits");
    aborts = r.GetCounter("engine.txn.aborts");
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Writeset / BinlogEntry helpers

std::vector<std::string> Writeset::ConflictKeys() const {
  std::vector<std::string> keys;
  keys.reserve(ops.size());
  for (const WriteOp& op : ops) {
    keys.push_back(op.database + "." + op.table + "/" +
                   op.primary_key.ToString());
  }
  return keys;
}

int64_t Writeset::SizeBytes() const {
  int64_t bytes = 32;
  for (const WriteOp& op : ops) {
    bytes += 48 + static_cast<int64_t>(op.table.size());
    for (const sql::Value& v : op.after) {
      bytes += 8 + static_cast<int64_t>(
                       v.type() == sql::ValueType::kString ? v.AsString().size()
                                                           : 8);
    }
  }
  return bytes;
}

int64_t BackupImage::SizeBytes() const {
  int64_t bytes = 128;
  for (const auto& db : databases) {
    for (const auto& t : db.tables) {
      bytes += 256;
      bytes += static_cast<int64_t>(t.rows.size()) * 64;
    }
  }
  return bytes;
}

uint64_t BackupImage::RowCount() const {
  uint64_t rows = 0;
  for (const auto& db : databases) {
    for (const auto& t : db.tables) rows += t.rows.size();
  }
  return rows;
}

// ---------------------------------------------------------------------------
// StatementExecutor: executes one parsed statement inside a session's txn.

class StatementExecutor {
 public:
  StatementExecutor(Rdbms* db, Rdbms::Session* session)
      : db_(db),
        session_(session),
        view_(db->ViewFor(session)),
        ws_mark_(session->txn ? session->txn->writeset.ops.size() : 0) {}

  ExecResult Run(const sql::Statement& stmt) {
    switch (stmt.type()) {
      case sql::StmtType::kCreateDatabase:
        return RunCreateDatabase(stmt.As<sql::CreateDatabaseStmt>());
      case sql::StmtType::kCreateTable:
        return RunCreateTable(stmt.As<sql::CreateTableStmt>());
      case sql::StmtType::kDropTable:
        return RunDropTable(stmt.As<sql::DropTableStmt>());
      case sql::StmtType::kCreateSequence:
        return RunCreateSequence(stmt.As<sql::CreateSequenceStmt>());
      case sql::StmtType::kInsert:
        return RunInsert(stmt.As<sql::InsertStmt>());
      case sql::StmtType::kUpdate:
        return RunUpdate(stmt.As<sql::UpdateStmt>());
      case sql::StmtType::kDelete:
        return RunDelete(stmt.As<sql::DeleteStmt>());
      case sql::StmtType::kSelect:
        return RunSelect(stmt.As<sql::SelectStmt>());
      case sql::StmtType::kCall:
        return RunCall(stmt.As<sql::CallStmt>());
      default: {
        ExecResult r;
        r.status = Status::Internal("transaction control reached executor");
        return r;
      }
    }
  }

 private:
  using Row = sql::Row;
  using Value = sql::Value;

  // --- Expression evaluation ------------------------------------------------

  Result<Value> Eval(const sql::Expr& e, const TableSchema* schema,
                     const Row* row) {
    switch (e.kind) {
      case sql::Expr::Kind::kLiteral:
        return e.literal;
      case sql::Expr::Kind::kColumn: {
        if (schema == nullptr || row == nullptr) {
          return Status::InvalidArgument("column '" + e.column +
                                         "' used without a row context");
        }
        int idx = schema->ColumnIndex(e.column);
        if (idx < 0) {
          return Status::InvalidArgument("unknown column '" + e.column + "'");
        }
        return (*row)[static_cast<size_t>(idx)];
      }
      case sql::Expr::Kind::kBinary:
        return EvalBinary(e, schema, row);
      case sql::Expr::Kind::kUnary: {
        Result<Value> arg = Eval(*e.children[0], schema, row);
        if (!arg.ok()) return arg;
        if (e.un_op == sql::UnaryOp::kNot) {
          return Value::Bool(!arg.value().Truthy());
        }
        if (arg.value().type() == sql::ValueType::kInt) {
          return Value::Int(-arg.value().AsInt());
        }
        return Value::Double(-arg.value().NumericValue());
      }
      case sql::Expr::Kind::kFunc:
        return EvalFunc(e, schema, row);
      case sql::Expr::Kind::kInSubquery: {
        Result<Value> lhs = Eval(*e.children[0], schema, row);
        if (!lhs.ok()) return lhs;
        Result<const std::vector<Value>*> sub = SubqueryValues(&e);
        if (!sub.ok()) return sub.status();
        for (const Value& v : *sub.value()) {
          if (v.Compare(lhs.value()) == 0) return Value::Bool(true);
        }
        return Value::Bool(false);
      }
    }
    return Status::Internal("unreachable expression kind");
  }

  Result<Value> EvalBinary(const sql::Expr& e, const TableSchema* schema,
                           const Row* row) {
    // Short-circuit logical operators.
    if (e.bin_op == sql::BinaryOp::kAnd || e.bin_op == sql::BinaryOp::kOr) {
      Result<Value> lhs = Eval(*e.children[0], schema, row);
      if (!lhs.ok()) return lhs;
      bool l = lhs.value().Truthy();
      if (e.bin_op == sql::BinaryOp::kAnd && !l) return Value::Bool(false);
      if (e.bin_op == sql::BinaryOp::kOr && l) return Value::Bool(true);
      Result<Value> rhs = Eval(*e.children[1], schema, row);
      if (!rhs.ok()) return rhs;
      return Value::Bool(rhs.value().Truthy());
    }
    Result<Value> lhs = Eval(*e.children[0], schema, row);
    if (!lhs.ok()) return lhs;
    Result<Value> rhs = Eval(*e.children[1], schema, row);
    if (!rhs.ok()) return rhs;
    const Value& a = lhs.value();
    const Value& b = rhs.value();
    switch (e.bin_op) {
      case sql::BinaryOp::kEq:
        return Value::Bool(a.Compare(b) == 0);
      case sql::BinaryOp::kNe:
        return Value::Bool(a.Compare(b) != 0);
      case sql::BinaryOp::kLt:
        return Value::Bool(a.Compare(b) < 0);
      case sql::BinaryOp::kLe:
        return Value::Bool(a.Compare(b) <= 0);
      case sql::BinaryOp::kGt:
        return Value::Bool(a.Compare(b) > 0);
      case sql::BinaryOp::kGe:
        return Value::Bool(a.Compare(b) >= 0);
      case sql::BinaryOp::kAdd:
      case sql::BinaryOp::kSub:
      case sql::BinaryOp::kMul:
      case sql::BinaryOp::kDiv:
      case sql::BinaryOp::kMod: {
        if (a.is_null() || b.is_null()) return Value::Null();
        bool both_int = a.type() == sql::ValueType::kInt &&
                        b.type() == sql::ValueType::kInt;
        if (both_int) {
          int64_t x = a.AsInt(), y = b.AsInt();
          switch (e.bin_op) {
            case sql::BinaryOp::kAdd: return Value::Int(x + y);
            case sql::BinaryOp::kSub: return Value::Int(x - y);
            case sql::BinaryOp::kMul: return Value::Int(x * y);
            case sql::BinaryOp::kDiv:
              if (y == 0) return Status::InvalidArgument("division by zero");
              return Value::Int(x / y);
            case sql::BinaryOp::kMod:
              if (y == 0) return Status::InvalidArgument("division by zero");
              return Value::Int(x % y);
            default: break;
          }
        }
        double x = a.NumericValue(), y = b.NumericValue();
        switch (e.bin_op) {
          case sql::BinaryOp::kAdd: return Value::Double(x + y);
          case sql::BinaryOp::kSub: return Value::Double(x - y);
          case sql::BinaryOp::kMul: return Value::Double(x * y);
          case sql::BinaryOp::kDiv:
            if (y == 0) return Status::InvalidArgument("division by zero");
            return Value::Double(x / y);
          case sql::BinaryOp::kMod:
            if (y == 0) return Status::InvalidArgument("division by zero");
            return Value::Double(std::fmod(x, y));
          default: break;
        }
        break;
      }
      default:
        break;
    }
    return Status::Internal("unreachable binary op");
  }

  Result<Value> EvalFunc(const sql::Expr& e, const TableSchema* schema,
                         const Row* row) {
    switch (e.func) {
      case sql::FuncKind::kNow:
        // Replica-local clock: the non-determinism of §4.3.2.
        return Value::Int(db_->options_.clock());
      case sql::FuncKind::kRand:
        // Replica-local RNG: ditto.
        return Value::Double(db_->rand_rng_.NextDouble());
      case sql::FuncKind::kNextval: {
        // Sequences are non-transactional: the draw survives rollback.
        Rdbms::Database* database = db_->FindDatabase(session_->database);
        if (database == nullptr) {
          return Status::NotFound("database " + session_->database);
        }
        auto it = database->sequences.find(e.sequence_name);
        if (it == database->sequences.end()) {
          return Status::NotFound("sequence " + e.sequence_name);
        }
        return Value::Int(it->second++);
      }
      case sql::FuncKind::kAbs: {
        if (e.children.size() != 1) {
          return Status::InvalidArgument("ABS takes one argument");
        }
        Result<Value> arg = Eval(*e.children[0], schema, row);
        if (!arg.ok()) return arg;
        if (arg.value().type() == sql::ValueType::kInt) {
          return Value::Int(std::llabs(arg.value().AsInt()));
        }
        return Value::Double(std::fabs(arg.value().NumericValue()));
      }
      case sql::FuncKind::kLower:
      case sql::FuncKind::kUpper: {
        if (e.children.size() != 1) {
          return Status::InvalidArgument("string function takes one argument");
        }
        Result<Value> arg = Eval(*e.children[0], schema, row);
        if (!arg.ok()) return arg;
        if (arg.value().type() != sql::ValueType::kString) {
          return Status::InvalidArgument("expected string argument");
        }
        std::string s = arg.value().AsString();
        for (char& c : s) {
          c = e.func == sql::FuncKind::kLower
                  ? static_cast<char>(std::tolower(c))
                  : static_cast<char>(std::toupper(c));
        }
        return Value::String(std::move(s));
      }
    }
    return Status::Internal("unreachable function kind");
  }

  /// Uncorrelated subqueries are evaluated once per statement and cached —
  /// matching how real engines execute `IN (SELECT ... LIMIT n)`.
  Result<const std::vector<Value>*> SubqueryValues(const sql::Expr* e) {
    auto it = subquery_cache_.find(e);
    if (it != subquery_cache_.end()) return &it->second;
    ExecResult sub = RunSelect(*e->subquery);
    if (!sub.ok()) return sub.status;
    if (!sub.columns.empty() && sub.columns.size() != 1) {
      return Status::InvalidArgument("IN subquery must return one column");
    }
    std::vector<Value> values;
    values.reserve(sub.rows.size());
    for (const Row& r : sub.rows) {
      if (!r.empty()) values.push_back(r[0]);
    }
    auto [ins, unused] = subquery_cache_.emplace(e, std::move(values));
    (void)unused;
    return &ins->second;
  }

  // --- Helpers ----------------------------------------------------------------

  Status CheckDiskFull() {
    if (db_->disk_full_) {
      return Status::DiskFull("data partition out of space on " +
                              db_->name());
    }
    return Status::OK();
  }

  std::string TableKey(const sql::TableRef& ref) const {
    std::string database = ref.database.empty() ? session_->database
                                                : ref.database;
    return database + "." + ref.table;
  }

  /// Detects `pk = <literal>` (possibly conjoined) for the fast path.
  const sql::Expr* FindPkEquality(const sql::Expr* where,
                                  const TableSchema& schema) const {
    if (where == nullptr || schema.primary_key_index < 0) return nullptr;
    if (where->kind == sql::Expr::Kind::kBinary &&
        where->bin_op == sql::BinaryOp::kEq) {
      const sql::Expr* l = where->children[0].get();
      const sql::Expr* r = where->children[1].get();
      const std::string& pk_name =
          schema.columns[static_cast<size_t>(schema.primary_key_index)].name;
      if (l->kind == sql::Expr::Kind::kColumn && l->column == pk_name &&
          r->kind == sql::Expr::Kind::kLiteral) {
        return r;
      }
      if (r->kind == sql::Expr::Kind::kColumn && r->column == pk_name &&
          l->kind == sql::Expr::Kind::kLiteral) {
        return l;
      }
    }
    if (where->kind == sql::Expr::Kind::kBinary &&
        where->bin_op == sql::BinaryOp::kAnd) {
      if (const sql::Expr* hit =
              FindPkEquality(where->children[0].get(), schema)) {
        return hit;
      }
      return FindPkEquality(where->children[1].get(), schema);
    }
    return nullptr;
  }

  /// Collects (rowid, row) pairs matching `where` in physical order.
  Status MatchRows(VersionedTable* table, const sql::Expr* where,
                   std::vector<std::pair<RowId, Row>>* out, ExecStats* stats) {
    // PK point lookup fast path.
    if (const sql::Expr* pk_lit = FindPkEquality(where, table->schema())) {
      std::optional<RowId> rid =
          table->LookupPk(view_, pk_lit->literal, stats);
      if (!rid) return Status::OK();
      Result<Row> row = table->Get(view_, *rid);
      if (!row.ok()) return Status::OK();
      Result<Value> match = Eval(*where, &table->schema(), &row.value());
      if (!match.ok()) return match.status();
      if (match.value().Truthy()) out->emplace_back(*rid, row.TakeValue());
      return Status::OK();
    }
    std::vector<std::pair<RowId, Row>> all;
    table->Scan(view_, &all, stats);
    for (auto& [rid, row] : all) {
      if (where != nullptr) {
        Result<Value> match = Eval(*where, &table->schema(), &row);
        if (!match.ok()) return match.status();
        if (!match.value().Truthy()) continue;
      }
      out->emplace_back(rid, std::move(row));
    }
    return Status::OK();
  }

  void CaptureWrite(VersionedTable* table, const sql::TableRef& ref,
                    WriteOpKind kind, const Value& pk, Row after) {
    if (!db_->options_.capture_writesets) return;
    if (table->schema().temporary) return;  // §4.1.4: invisible to repl.
    Rdbms::Txn& txn = *session_->txn;
    if (table->schema().primary_key_index < 0) {
      txn.writeset.incomplete = true;
      return;
    }
    WriteOp op;
    op.kind = kind;
    op.database = ref.database.empty() ? session_->database : ref.database;
    op.table = ref.table;
    op.primary_key = pk;
    op.after = std::move(after);
    txn.writeset.ops.push_back(std::move(op));
  }

  // --- Statement implementations ----------------------------------------------

  ExecResult RunCreateDatabase(const sql::CreateDatabaseStmt& s) {
    ExecResult r;
    if (!db_->options_.dialect.supports_multiple_databases &&
        !db_->databases_.empty()) {
      r.status = Status::NotSupported(db_->options_.dialect.name +
                                      " does not support multiple databases");
      return r;
    }
    if (db_->databases_.count(s.name)) {
      if (s.if_not_exists) return r;
      r.status = Status::AlreadyExists("database " + s.name);
      return r;
    }
    r.status = CheckDiskFull();
    if (!r.ok()) return r;
    Rdbms::Database database;
    database.name = s.name;
    db_->databases_.emplace(s.name, std::move(database));
    return r;
  }

  ExecResult RunCreateTable(const sql::CreateTableStmt& s) {
    ExecResult r;
    r.status = CheckDiskFull();
    if (!r.ok()) return r;
    Result<TableSchema> schema = TableSchema::FromCreate(s);
    if (!schema.ok()) {
      r.status = schema.status();
      return r;
    }
    if (s.temporary) {
      // §4.1.4: connection-scoped, and some dialects refuse them inside
      // transactions entirely.
      if (!db_->options_.dialect.temp_tables_in_transactions &&
          session_->txn && session_->txn->explicit_txn) {
        r.status = Status::NotSupported(
            db_->options_.dialect.name +
            " does not allow temporary tables within transactions");
        return r;
      }
      if (session_->temp_tables.count(s.table.table)) {
        if (s.if_not_exists) return r;
        r.status = Status::AlreadyExists("temporary table " + s.table.table);
        return r;
      }
      session_->temp_tables.emplace(
          s.table.table, std::make_unique<VersionedTable>(
                             schema.TakeValue(), db_->options_.physical_seed));
      return r;
    }
    std::string database_name =
        s.table.database.empty() ? session_->database : s.table.database;
    Rdbms::Database* database = db_->FindDatabase(database_name);
    if (database == nullptr) {
      r.status = Status::NotFound("database " + database_name);
      return r;
    }
    if (database->tables.count(s.table.table)) {
      if (s.if_not_exists) return r;
      r.status = Status::AlreadyExists("table " + s.table.table);
      return r;
    }
    database->tables.emplace(
        s.table.table, std::make_unique<VersionedTable>(
                           schema.TakeValue(), db_->options_.physical_seed));
    return r;
  }

  ExecResult RunDropTable(const sql::DropTableStmt& s) {
    ExecResult r;
    if (s.table.database.empty() &&
        session_->temp_tables.erase(s.table.table) > 0) {
      return r;
    }
    std::string database_name =
        s.table.database.empty() ? session_->database : s.table.database;
    Rdbms::Database* database = db_->FindDatabase(database_name);
    if (database == nullptr || database->tables.erase(s.table.table) == 0) {
      if (!s.if_exists) {
        r.status = Status::NotFound("table " + s.table.ToString());
      }
    }
    return r;
  }

  ExecResult RunCreateSequence(const sql::CreateSequenceStmt& s) {
    ExecResult r;
    r.status = CheckDiskFull();
    if (!r.ok()) return r;
    Rdbms::Database* database = db_->FindDatabase(session_->database);
    if (database == nullptr) {
      r.status = Status::NotFound("database " + session_->database);
      return r;
    }
    if (database->sequences.count(s.name)) {
      r.status = Status::AlreadyExists("sequence " + s.name);
      return r;
    }
    database->sequences[s.name] = s.start;
    return r;
  }

  ExecResult RunInsert(const sql::InsertStmt& s) {
    ExecResult r;
    r.status = CheckDiskFull();
    if (!r.ok()) return r;
    Result<VersionedTable*> table_r = db_->ResolveTable(session_, s.table);
    if (!table_r.ok()) {
      r.status = table_r.status();
      return r;
    }
    VersionedTable* table = table_r.value();
    const TableSchema& schema = table->schema();
    if (view_.level == IsolationLevel::kSerializable &&
        !schema.temporary) {
      r.status = db_->AcquireWrite(&*session_->txn, TableKey(s.table));
      if (!r.ok()) return r;
    }

    // Map column list.
    std::vector<int> targets;
    if (s.columns.empty()) {
      if (!s.rows.empty() && s.rows[0].size() != schema.columns.size()) {
        r.status = Status::InvalidArgument("value count mismatch");
        return r;
      }
      for (size_t i = 0; i < schema.columns.size(); ++i) {
        targets.push_back(static_cast<int>(i));
      }
    } else {
      for (const std::string& col : s.columns) {
        int idx = schema.ColumnIndex(col);
        if (idx < 0) {
          r.status = Status::InvalidArgument("unknown column " + col);
          return r;
        }
        targets.push_back(idx);
      }
    }

    // Insert row by row; undo on mid-statement failure (statement-level
    // atomicity even for dialects that keep the transaction open).
    std::vector<RowId> inserted;
    for (const auto& value_exprs : s.rows) {
      if (value_exprs.size() != targets.size()) {
        r.status = Status::InvalidArgument("value count mismatch");
        break;
      }
      Row row(schema.columns.size(), Value::Null());
      for (size_t i = 0; i < targets.size(); ++i) {
        Result<Value> v = Eval(*value_exprs[i], nullptr, nullptr);
        if (!v.ok()) {
          r.status = v.status();
          break;
        }
        row[static_cast<size_t>(targets[i])] = v.TakeValue();
      }
      if (!r.ok()) break;
      // Auto-increment assignment for missing/NULL PK.
      if (schema.primary_key_index >= 0) {
        size_t pki = static_cast<size_t>(schema.primary_key_index);
        if (schema.columns[pki].auto_increment && row[pki].is_null()) {
          row[pki] = Value::Int(table->NextAutoIncrement());
        }
      }
      Result<RowId> rid = table->Insert(view_, row, &r.stats);
      if (!rid.ok()) {
        r.status = rid.status();
        break;
      }
      inserted.push_back(rid.value());
      ++r.affected;
      if (schema.primary_key_index >= 0) {
        const Value& pk = row[static_cast<size_t>(schema.primary_key_index)];
        CaptureWrite(table, s.table, WriteOpKind::kInsert, pk, row);
        QueueTrigger(WriteOpKind::kInsert, s.table, pk, row);
      } else {
        CaptureWrite(table, s.table, WriteOpKind::kInsert, Value::Null(), row);
      }
    }
    if (!r.ok()) {
      // Undo this statement's inserts (auto-increment draws are NOT undone
      // — the §4.3.2 "holes" behaviour).
      for (RowId rid : inserted) table->Delete(view_, rid, nullptr);
      UndoCapturedWrites();
      r.affected = 0;
      return r;
    }
    FlushTriggers();
    return r;
  }

  ExecResult RunUpdate(const sql::UpdateStmt& s) {
    ExecResult r;
    r.status = CheckDiskFull();
    if (!r.ok()) return r;
    Result<VersionedTable*> table_r = db_->ResolveTable(session_, s.table);
    if (!table_r.ok()) {
      r.status = table_r.status();
      return r;
    }
    VersionedTable* table = table_r.value();
    const TableSchema& schema = table->schema();
    if (view_.level == IsolationLevel::kSerializable && !schema.temporary) {
      r.status = db_->AcquireWrite(&*session_->txn, TableKey(s.table));
      if (!r.ok()) return r;
    }

    std::vector<int> set_cols;
    for (const auto& [col, expr] : s.sets) {
      (void)expr;
      int idx = schema.ColumnIndex(col);
      if (idx < 0) {
        r.status = Status::InvalidArgument("unknown column " + col);
        return r;
      }
      set_cols.push_back(idx);
    }

    std::vector<std::pair<RowId, Row>> targets;
    r.status = MatchRows(table, s.where.get(), &targets, &r.stats);
    if (!r.ok()) return r;

    struct Applied {
      RowId rid;
      Row before;
    };
    std::vector<Applied> applied;
    for (auto& [rid, before] : targets) {
      Row after = before;
      for (size_t i = 0; i < s.sets.size(); ++i) {
        // SET expressions see the row: per-row RAND() genuinely differs per
        // row here, which is why rewriting it is impossible (§4.3.2).
        Result<Value> v = Eval(*s.sets[i].second, &schema, &before);
        if (!v.ok()) {
          r.status = v.status();
          break;
        }
        after[static_cast<size_t>(set_cols[i])] = v.TakeValue();
      }
      if (!r.ok()) break;
      Status st = table->Update(view_, rid, after, &r.stats);
      if (!st.ok()) {
        r.status = st;
        break;
      }
      applied.push_back({rid, before});
      ++r.affected;
      if (schema.primary_key_index >= 0) {
        size_t pki = static_cast<size_t>(schema.primary_key_index);
        if (before[pki].Compare(after[pki]) != 0) {
          CaptureWrite(table, s.table, WriteOpKind::kDelete, before[pki], {});
          CaptureWrite(table, s.table, WriteOpKind::kInsert, after[pki], after);
        } else {
          CaptureWrite(table, s.table, WriteOpKind::kUpdate, after[pki], after);
        }
        QueueTrigger(WriteOpKind::kUpdate, s.table, after[pki], after);
      } else {
        CaptureWrite(table, s.table, WriteOpKind::kUpdate, Value::Null(),
                     after);
      }
    }
    if (!r.ok()) {
      for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
        table->Update(view_, it->rid, it->before, nullptr);
      }
      UndoCapturedWrites();
      r.affected = 0;
      return r;
    }
    FlushTriggers();
    return r;
  }

  ExecResult RunDelete(const sql::DeleteStmt& s) {
    ExecResult r;
    r.status = CheckDiskFull();
    if (!r.ok()) return r;
    Result<VersionedTable*> table_r = db_->ResolveTable(session_, s.table);
    if (!table_r.ok()) {
      r.status = table_r.status();
      return r;
    }
    VersionedTable* table = table_r.value();
    const TableSchema& schema = table->schema();
    if (view_.level == IsolationLevel::kSerializable && !schema.temporary) {
      r.status = db_->AcquireWrite(&*session_->txn, TableKey(s.table));
      if (!r.ok()) return r;
    }

    std::vector<std::pair<RowId, Row>> targets;
    r.status = MatchRows(table, s.where.get(), &targets, &r.stats);
    if (!r.ok()) return r;

    std::vector<RowId> applied;
    for (auto& [rid, before] : targets) {
      Status st = table->Delete(view_, rid, &r.stats);
      if (!st.ok()) {
        r.status = st;
        break;
      }
      applied.push_back(rid);
      ++r.affected;
      if (schema.primary_key_index >= 0) {
        size_t pki = static_cast<size_t>(schema.primary_key_index);
        CaptureWrite(table, s.table, WriteOpKind::kDelete, before[pki], {});
        QueueTrigger(WriteOpKind::kDelete, s.table, before[pki], {});
      } else {
        CaptureWrite(table, s.table, WriteOpKind::kDelete, Value::Null(), {});
      }
    }
    if (!r.ok()) {
      for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
        table->UndoDelete(view_.id, *it);
      }
      UndoCapturedWrites();
      r.affected = 0;
      return r;
    }
    FlushTriggers();
    return r;
  }

  ExecResult RunSelect(const sql::SelectStmt& s) {
    ExecResult r;
    Result<VersionedTable*> table_r = db_->ResolveTable(session_, s.table);
    if (!table_r.ok()) {
      r.status = table_r.status();
      return r;
    }
    VersionedTable* table = table_r.value();
    const TableSchema& schema = table->schema();
    if (view_.level == IsolationLevel::kSerializable && !schema.temporary) {
      r.status = s.for_update
                     ? db_->AcquireWrite(&*session_->txn, TableKey(s.table))
                     : db_->AcquireRead(&*session_->txn, TableKey(s.table));
      if (!r.ok()) return r;
    }

    std::vector<std::pair<RowId, Row>> matched;
    r.status = MatchRows(table, s.where.get(), &matched, &r.stats);
    if (!r.ok()) return r;

    // ORDER BY.
    if (!s.order_by.empty()) {
      std::vector<int> keys;
      for (const sql::OrderKey& k : s.order_by) {
        int idx = schema.ColumnIndex(k.column);
        if (idx < 0) {
          r.status = Status::InvalidArgument("unknown column " + k.column);
          return r;
        }
        keys.push_back(idx);
      }
      std::stable_sort(matched.begin(), matched.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t i = 0; i < keys.size(); ++i) {
                           int c = a.second[static_cast<size_t>(keys[i])]
                                       .Compare(
                                           b.second[static_cast<size_t>(
                                               keys[i])]);
                           if (c != 0) {
                             return s.order_by[i].descending ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }
    if (s.limit >= 0 && matched.size() > static_cast<size_t>(s.limit)) {
      matched.resize(static_cast<size_t>(s.limit));
    }

    // Projection.
    if (s.star) {
      for (const sql::ColumnDef& c : schema.columns) r.columns.push_back(c.name);
      for (auto& [rid, row] : matched) {
        (void)rid;
        r.rows.push_back(std::move(row));
      }
    } else {
      bool has_agg = false;
      for (const sql::SelectItem& item : s.items) {
        has_agg = has_agg || item.agg != sql::AggFunc::kNone;
      }
      if (has_agg) {
        Row out;
        for (const sql::SelectItem& item : s.items) {
          if (item.agg == sql::AggFunc::kNone) {
            r.status = Status::NotSupported(
                "mixing aggregates and plain columns requires GROUP BY, "
                "which this dialect does not provide");
            return r;
          }
          Result<Value> agg = EvalAggregate(item, schema, matched);
          if (!agg.ok()) {
            r.status = agg.status();
            return r;
          }
          out.push_back(agg.TakeValue());
          r.columns.push_back(AggLabel(item));
        }
        r.rows.push_back(std::move(out));
      } else {
        for (const sql::SelectItem& item : s.items) {
          r.columns.push_back(sql::ExprToSql(*item.expr));
        }
        for (auto& [rid, row] : matched) {
          (void)rid;
          Row out;
          for (const sql::SelectItem& item : s.items) {
            Result<Value> v = Eval(*item.expr, &schema, &row);
            if (!v.ok()) {
              r.status = v.status();
              return r;
            }
            out.push_back(v.TakeValue());
          }
          r.rows.push_back(std::move(out));
        }
      }
    }
    r.stats.rows_returned = r.rows.size();
    return r;
  }

  static std::string AggLabel(const sql::SelectItem& item) {
    std::string inner = item.expr ? sql::ExprToSql(*item.expr) : "*";
    switch (item.agg) {
      case sql::AggFunc::kCount: return "COUNT(" + inner + ")";
      case sql::AggFunc::kSum: return "SUM(" + inner + ")";
      case sql::AggFunc::kMin: return "MIN(" + inner + ")";
      case sql::AggFunc::kMax: return "MAX(" + inner + ")";
      case sql::AggFunc::kAvg: return "AVG(" + inner + ")";
      default: return inner;
    }
  }

  Result<Value> EvalAggregate(
      const sql::SelectItem& item, const TableSchema& schema,
      const std::vector<std::pair<RowId, Row>>& rows) {
    if (item.agg == sql::AggFunc::kCount && item.expr == nullptr) {
      return Value::Int(static_cast<int64_t>(rows.size()));
    }
    int64_t count = 0;
    double sum = 0;
    bool all_int = true;
    std::optional<Value> min, max;
    for (const auto& [rid, row] : rows) {
      (void)rid;
      Result<Value> v = Eval(*item.expr, &schema, &row);
      if (!v.ok()) return v;
      if (v.value().is_null()) continue;
      ++count;
      sum += v.value().NumericValue();
      all_int = all_int && v.value().type() == sql::ValueType::kInt;
      if (!min || v.value().Compare(*min) < 0) min = v.value();
      if (!max || v.value().Compare(*max) > 0) max = v.value();
    }
    switch (item.agg) {
      case sql::AggFunc::kCount:
        return Value::Int(count);
      case sql::AggFunc::kSum:
        if (count == 0) return Value::Null();
        return all_int ? Value::Int(static_cast<int64_t>(sum))
                       : Value::Double(sum);
      case sql::AggFunc::kMin:
        return min ? *min : Value::Null();
      case sql::AggFunc::kMax:
        return max ? *max : Value::Null();
      case sql::AggFunc::kAvg:
        return count == 0 ? Value::Null() : Value::Double(sum / count);
      default:
        return Status::Internal("bad aggregate");
    }
  }

  ExecResult RunCall(const sql::CallStmt& s) {
    ExecResult r;
    auto it = db_->procedures_.find(s.procedure);
    if (it == db_->procedures_.end()) {
      r.status = Status::NotFound("procedure " + s.procedure);
      return r;
    }
    std::vector<Value> args;
    for (const auto& e : s.args) {
      Result<Value> v = Eval(*e, nullptr, nullptr);
      if (!v.ok()) {
        r.status = v.status();
        return r;
      }
      args.push_back(v.TakeValue());
    }
    ProcedureContext ctx(db_, session_->id, std::move(args));
    // NOTE: a procedure is a black box — its inner statements apply as they
    // run, and a late failure does not undo the earlier ones (only the
    // surrounding transaction can). This mirrors real engines.
    r.status = it->second(&ctx);
    return r;
  }

  /// Rolls the transaction writeset back to its size at statement start
  /// (statement-level atomicity for the capture stream too).
  void UndoCapturedWrites() {
    if (!db_->options_.capture_writesets || !session_->txn) return;
    auto& ops = session_->txn->writeset.ops;
    if (ops.size() > ws_mark_) ops.resize(ws_mark_);
    pending_trigger_ops_.clear();
  }

  /// Triggers fire only once the statement as a whole succeeded, so that a
  /// failed statement leaves no trigger side effects behind.
  void FlushTriggers() {
    std::vector<WriteOp> ops;
    ops.swap(pending_trigger_ops_);
    for (const WriteOp& op : ops) db_->FireTriggers(session_, op, 0);
  }

  void QueueTrigger(WriteOpKind kind, const sql::TableRef& ref,
                    const Value& pk, Row after) {
    WriteOp op;
    op.kind = kind;
    op.database = ref.database.empty() ? session_->database : ref.database;
    op.table = ref.table;
    op.primary_key = pk;
    op.after = std::move(after);
    pending_trigger_ops_.push_back(std::move(op));
  }

  Rdbms* db_;
  Rdbms::Session* session_;
  TxnView view_;
  size_t ws_mark_;
  std::vector<WriteOp> pending_trigger_ops_;
  // Lookup-only memo keyed by AST node; hashed (never ordered) so that
  // address order cannot become iteration order.
  HashMap<const sql::Expr*, std::vector<Value>> subquery_cache_;
};

// ---------------------------------------------------------------------------
// ProcedureContext

ExecResult ProcedureContext::Exec(const std::string& sql) {
  return rdbms_->Execute(session_, sql);
}

// ---------------------------------------------------------------------------
// Rdbms

Rdbms::Rdbms(RdbmsOptions options)
    : options_(std::move(options)), rand_rng_(options_.rand_seed) {
  Database main;
  main.name = "main";
  databases_.emplace("main", std::move(main));
  users_.insert("admin");
}

Result<SessionId> Rdbms::Connect(const std::string& user,
                                 const std::string& database) {
  if (options_.enforce_authentication && !users_.count(user)) {
    return Status::Unavailable("authentication failed for user '" + user +
                               "' on " + name());
  }
  if (!databases_.count(database)) {
    return Status::NotFound("database " + database);
  }
  Session s;
  s.id = next_session_++;
  s.user = user;
  s.database = database;
  s.isolation = options_.default_isolation;
  SessionId id = s.id;
  sessions_.emplace(id, std::move(s));
  return id;
}

void Rdbms::Disconnect(SessionId session) {
  Session* s = FindSession(session);
  if (s == nullptr) return;
  if (s->txn) RollbackTxn(s);
  // §4.1.4: the engine frees temporary tables when the connection drops.
  sessions_.erase(session);
}

bool Rdbms::HasSession(SessionId session) const {
  return sessions_.count(session) > 0;
}

Status Rdbms::SetIsolation(SessionId session, IsolationLevel level) {
  Session* s = FindSession(session);
  if (s == nullptr) return Status::NotFound("session");
  if (s->txn) {
    return Status::InvalidArgument("cannot change isolation mid-transaction");
  }
  if (level == IsolationLevel::kSnapshot &&
      !options_.dialect.supports_snapshot_isolation) {
    // §4.1.2: engines without SI silently fall back (documented downgrade).
    s->isolation = IsolationLevel::kReadCommitted;
    return Status::OK();
  }
  s->isolation = level;
  return Status::OK();
}

IsolationLevel Rdbms::EffectiveIsolation(SessionId session) const {
  const Session* s = FindSession(session);
  return s == nullptr ? options_.default_isolation : s->isolation;
}

bool Rdbms::InTransaction(SessionId session) const {
  const Session* s = FindSession(session);
  return s != nullptr && s->txn.has_value() && s->txn->explicit_txn;
}

const Writeset* Rdbms::CurrentWriteset(SessionId session) const {
  const Session* s = FindSession(session);
  if (s == nullptr || !s->txn) return nullptr;
  return &s->txn->writeset;
}

ExecResult Rdbms::Execute(SessionId session, const std::string& sql_text) {
  ++stats_.statements_parsed;
  Result<sql::Statement> parsed = sql::Parse(sql_text);
  if (!parsed.ok()) {
    ExecResult r;
    r.status = parsed.status();
    ++stats_.statement_errors;
    return r;
  }
  return ExecuteStmt(session, parsed.value());
}

ExecResult Rdbms::ExecuteStmt(SessionId session, const sql::Statement& stmt) {
  ExecResult r;
  Session* s = FindSession(session);
  if (s == nullptr) {
    r.status = Status::NotFound("no such session");
    return r;
  }
  ++stats_.statements_executed;
  EngineMetrics::Get().statements->Increment();

  // Transaction control.
  switch (stmt.type()) {
    case sql::StmtType::kBegin: {
      if (s->txn && s->txn->explicit_txn) {
        r.status = Status::InvalidArgument("transaction already open");
      } else {
        r.status = BeginTxn(s, /*explicit_txn=*/true);
        r.cost_us = static_cast<int64_t>(options_.cost_model.begin_us);
      }
      return r;
    }
    case sql::StmtType::kCommit: {
      if (!s->txn) return r;  // COMMIT outside txn is a no-op.
      bool has_writes =
          !s->txn->writeset.empty() || !s->txn->statements.empty();
      r.status = CommitTxn(s);
      // Only commits that wrote pay the durable log flush; read-only
      // commits are a no-op at the storage layer.
      r.cost_us = static_cast<int64_t>(has_writes ? options_.cost_model.commit_us
                                                  : options_.cost_model.begin_us);
      return r;
    }
    case sql::StmtType::kRollback: {
      if (s->txn) RollbackTxn(s);
      r.cost_us = static_cast<int64_t>(options_.cost_model.begin_us);
      return r;
    }
    default:
      break;
  }

  // PostgreSQL-style poisoned transactions reject everything until
  // ROLLBACK (§4.1.2).
  if (s->txn && s->txn->failed) {
    r.status = Status::Aborted(
        "current transaction is aborted, commands ignored until ROLLBACK");
    return r;
  }

  bool implicit = !s->txn;
  if (implicit) {
    r.status = BeginTxn(s, /*explicit_txn=*/false);
    if (!r.ok()) return r;
  } else if (s->txn->level == IsolationLevel::kReadCommitted) {
    // Read-committed re-snapshots every statement.
    s->txn->snapshot = commit_seq_;
  }

  StatementExecutor exec(this, s);
  ExecResult result = exec.Run(stmt);
  stats_.rows_scanned += result.stats.rows_scanned;
  stats_.rows_written += result.stats.rows_written;
  result.cost_us = options_.cost_model.StatementCost(
      result.stats, options_.capture_writesets && options_.writesets_via_triggers);

  if (!result.ok()) {
    ++stats_.statement_errors;
    if (result.status.code() == StatusCode::kConflict) ++stats_.conflicts;
    if (result.status.code() == StatusCode::kDeadlock) ++stats_.deadlocks;
    if (implicit) {
      RollbackTxn(s);
    } else if (options_.dialect.abort_txn_on_error) {
      s->txn->failed = true;  // Poison; MySQL-like dialects keep going.
    }
    return result;
  }

  // Record write statements for the binlog / recovery log. CALL is not
  // recorded itself: the procedure's inner write statements were already
  // captured as they ran (replicating both would double-apply).
  if (stmt.IsWrite() && stmt.type() != sql::StmtType::kCall) {
    s->txn->statements.push_back(sql::ToSql(stmt));
  }

  if (implicit) {
    Status commit = CommitTxn(s);
    if (!commit.ok()) {
      result.status = commit;
      return result;
    }
    result.cost_us += static_cast<int64_t>(options_.cost_model.commit_us);
  }
  return result;
}

ExecResult Rdbms::Begin(SessionId session) {
  return ExecuteStmt(session, sql::Statement{sql::BeginStmt{}});
}

ExecResult Rdbms::Commit(SessionId session) {
  return ExecuteStmt(session, sql::Statement{sql::CommitStmt{}});
}

ExecResult Rdbms::Rollback(SessionId session) {
  return ExecuteStmt(session, sql::Statement{sql::RollbackStmt{}});
}

Status Rdbms::BeginTxn(Session* session, bool explicit_txn) {
  Txn txn;
  txn.id = next_txn_++;
  txn.snapshot = commit_seq_;
  txn.level = session->isolation;
  if (txn.level == IsolationLevel::kSnapshot &&
      !options_.dialect.supports_snapshot_isolation) {
    txn.level = IsolationLevel::kReadCommitted;
  }
  txn.explicit_txn = explicit_txn;
  session->txn = std::move(txn);
  return Status::OK();
}

Status Rdbms::CommitTxn(Session* session) {
  Txn& txn = *session->txn;
  if (txn.failed) {
    RollbackTxn(session);
    return Status::Aborted("transaction was aborted; rolled back at COMMIT");
  }
  bool has_writes = !txn.writeset.empty() || !txn.statements.empty();
  CommitSeq cs = 0;
  if (has_writes) {
    cs = ++commit_seq_;
  }
  // Vacuum horizon: the oldest snapshot a live transaction might read.
  CommitSeq horizon = commit_seq_;
  // replicheck:allow(unordered-iter) commutative min over snapshots; no order escapes
  for (const auto& [sid2, sess2] : sessions_) {
    (void)sid2;
    if (sess2.txn && sess2.id != session->id) {
      horizon = std::min(horizon, sess2.txn->snapshot);
    }
  }
  for (auto& [db_name, database] : databases_) {
    (void)db_name;
    for (auto& [tname, table] : database.tables) {
      (void)tname;
      table->CommitTxn(txn.id, cs == 0 ? commit_seq_ : cs, horizon);
    }
  }
  for (auto& [tname, table] : session->temp_tables) {
    (void)tname;
    table->CommitTxn(txn.id, cs == 0 ? commit_seq_ : cs, horizon);
  }
  if (options_.dialect.temp_tables_dropped_on_commit) {
    session->temp_tables.clear();
  }
  ReleaseLocks(txn.id);
  if (has_writes) {
    BinlogEntry entry;
    entry.commit_seq = cs;
    entry.txn = txn.id;
    // The transaction ends below: hand its buffers over rather than copy.
    if (options_.binlog_statements) {
      entry.statements = std::move(txn.statements);
    }
    if (options_.capture_writesets) entry.writeset = std::move(txn.writeset);
    entry.session_user = session->user;
    entry.commit_time_micros = options_.clock();
    binlog_.push_back(std::move(entry));
  }
  ++stats_.transactions_committed;
  EngineMetrics::Get().commits->Increment();
  session->txn.reset();
  return Status::OK();
}

void Rdbms::RollbackTxn(Session* session) {
  Txn& txn = *session->txn;
  for (auto& [db_name, database] : databases_) {
    (void)db_name;
    for (auto& [tname, table] : database.tables) {
      (void)tname;
      table->RollbackTxn(txn.id);
    }
  }
  for (auto& [tname, table] : session->temp_tables) {
    (void)tname;
    table->RollbackTxn(txn.id);
  }
  ReleaseLocks(txn.id);
  ++stats_.transactions_aborted;
  EngineMetrics::Get().aborts->Increment();
  session->txn.reset();
}

TxnView Rdbms::ViewFor(Session* session) {
  TxnView v;
  if (session->txn) {
    v.id = session->txn->id;
    v.snapshot = session->txn->snapshot;
    v.level = session->txn->level;
  } else {
    v.snapshot = commit_seq_;
    v.level = session->isolation;
  }
  return v;
}

Status Rdbms::AcquireRead(Txn* txn, const std::string& table_key) {
  TableLocks& locks = locks_[table_key];
  for (TxnId w : locks.writers) {
    if (w != txn->id) {
      return Status::Deadlock("table " + table_key +
                              " write-locked by another transaction");
    }
  }
  locks.readers.insert(txn->id);
  txn->touched_tables.insert(table_key);
  return Status::OK();
}

Status Rdbms::AcquireWrite(Txn* txn, const std::string& table_key) {
  TableLocks& locks = locks_[table_key];
  for (TxnId r : locks.readers) {
    if (r != txn->id) {
      return Status::Deadlock("table " + table_key +
                              " read-locked by another transaction");
    }
  }
  for (TxnId w : locks.writers) {
    if (w != txn->id) {
      return Status::Deadlock("table " + table_key +
                              " write-locked by another transaction");
    }
  }
  locks.writers.insert(txn->id);
  txn->touched_tables.insert(table_key);
  return Status::OK();
}

void Rdbms::ReleaseLocks(TxnId txn) {
  for (auto& [key, locks] : locks_) {
    (void)key;
    locks.readers.erase(txn);
    locks.writers.erase(txn);
  }
}

Rdbms::Database* Rdbms::FindDatabase(const std::string& name) {
  auto it = databases_.find(name);
  return it == databases_.end() ? nullptr : &it->second;
}

const Rdbms::Database* Rdbms::FindDatabase(const std::string& name) const {
  auto it = databases_.find(name);
  return it == databases_.end() ? nullptr : &it->second;
}

Rdbms::Session* Rdbms::FindSession(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const Rdbms::Session* Rdbms::FindSession(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

Result<VersionedTable*> Rdbms::ResolveTable(Session* session,
                                            const sql::TableRef& ref) {
  if (ref.database.empty()) {
    auto tit = session->temp_tables.find(ref.table);
    if (tit != session->temp_tables.end()) {
      // §4.1.4 (Sybase): no temp tables inside transactions.
      if (!options_.dialect.temp_tables_in_transactions && session->txn &&
          session->txn->explicit_txn) {
        return Status::NotSupported(
            options_.dialect.name +
            " does not allow temporary tables within transactions");
      }
      return tit->second.get();
    }
  }
  std::string db_name = ref.database.empty() ? session->database : ref.database;
  Database* database = FindDatabase(db_name);
  if (database == nullptr) return Status::NotFound("database " + db_name);
  auto it = database->tables.find(ref.table);
  if (it == database->tables.end()) {
    return Status::NotFound("table " + ref.ToString());
  }
  return it->second.get();
}

void Rdbms::FireTriggers(Session* session, const WriteOp& op, int depth) {
  (void)depth;
  if (trigger_depth_ > 4) {
    REPLIDB_LOG(Warn) << "trigger recursion limit hit on " << op.table;
    return;
  }
  ++trigger_depth_;
  struct DepthGuard {
    int* d;
    ~DepthGuard() { --*d; }
  } guard{&trigger_depth_};
  for (const TriggerDef& t : triggers_) {
    if (t.database != op.database || t.table != op.table) continue;
    if (t.event != op.kind) continue;
    // §4.1.5: per-user triggers — same SQL, different effect per user.
    if (!t.only_for_user.empty() && t.only_for_user != session->user) continue;
    Status st = t.action(this, session->id, op);
    if (!st.ok()) {
      REPLIDB_LOG(Warn) << "trigger " << t.name << " failed: " << st.ToString();
    }
  }
}

Result<CommitSeq> Rdbms::ApplyWriteset(const Writeset& ws) {
  if (disk_full_) return Status::DiskFull("cannot apply writeset");
  if (ws.incomplete) {
    return Status::NotSupported(
        "writeset is incomplete (table without primary key)");
  }
  Result<SessionId> sid = Connect("admin", "main");
  if (!sid.ok()) return sid.status();
  Session* s = FindSession(sid.value());
  Status st = BeginTxn(s, /*explicit_txn=*/true);
  if (!st.ok()) {
    Disconnect(sid.value());
    return st;
  }
  TxnView view = ViewFor(s);
  for (const WriteOp& op : ws.ops) {
    Database* database = FindDatabase(op.database);
    if (database == nullptr) {
      st = Status::NotFound("database " + op.database);
      break;
    }
    auto tit = database->tables.find(op.table);
    if (tit == database->tables.end()) {
      st = Status::NotFound("table " + op.table);
      break;
    }
    VersionedTable* table = tit->second.get();
    std::optional<RowId> rid = table->LookupPk(view, op.primary_key, nullptr);
    switch (op.kind) {
      case WriteOpKind::kInsert: {
        if (rid) {
          st = Status::ConstraintViolation("apply: duplicate primary key " +
                                           op.primary_key.ToString());
          break;
        }
        Result<RowId> ins = table->Insert(view, op.after, nullptr);
        st = ins.ok() ? Status::OK() : ins.status();
        break;
      }
      case WriteOpKind::kUpdate: {
        // Upsert semantics: a slave that missed the insert still converges.
        if (rid) {
          st = table->Update(view, *rid, op.after, nullptr);
        } else {
          Result<RowId> ins = table->Insert(view, op.after, nullptr);
          st = ins.ok() ? Status::OK() : ins.status();
        }
        break;
      }
      case WriteOpKind::kDelete: {
        if (rid) st = table->Delete(view, *rid, nullptr);
        break;
      }
    }
    if (!st.ok()) break;
  }
  if (!st.ok()) {
    RollbackTxn(s);
    Disconnect(sid.value());
    return st;
  }
  s->txn->writeset = ws;  // Propagate onward in this replica's binlog.
  Status commit = CommitTxn(s);
  CommitSeq cs = commit_seq_;
  Disconnect(sid.value());
  if (!commit.ok()) return commit;
  return cs;
}

uint64_t Rdbms::ContentHash() const {
  TxnView view;
  view.snapshot = commit_seq_;
  view.level = IsolationLevel::kSnapshot;
  uint64_t h = 0;
  for (const auto& [db_name, database] : databases_) {
    for (const auto& [tname, table] : database.tables) {
      uint64_t th = table->ContentHash(view);
      // Bind table identity into the hash.
      for (char c : db_name) th = th * 131 + static_cast<unsigned char>(c);
      for (char c : tname) th = th * 131 + static_cast<unsigned char>(c);
      h ^= th;
    }
  }
  return h;
}

std::vector<std::pair<std::string, uint64_t>> Rdbms::TableDigests() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& [db_name, database] : databases_) {
    for (const auto& [tname, table] : database.tables) {
      out.emplace_back(db_name + "." + tname, table->digest());
    }
  }
  return out;
}

uint64_t Rdbms::ContentHashWithSequences() const {
  uint64_t h = ContentHash();
  for (const auto& [db_name, database] : databases_) {
    (void)db_name;
    for (const auto& [sname, next] : database.sequences) {
      for (char c : sname) h = h * 131 + static_cast<unsigned char>(c);
      h ^= static_cast<uint64_t>(next) * 0x9e3779b97f4a7c15ULL;
    }
    for (const auto& [tname, table] : database.tables) {
      (void)tname;
      h ^= static_cast<uint64_t>(table->auto_increment_counter()) *
           0xbf58476d1ce4e5b9ULL;
    }
  }
  return h;
}

void Rdbms::CreateUser(const std::string& user) { users_.insert(user); }

bool Rdbms::HasUser(const std::string& user) const {
  return users_.count(user) > 0;
}

void Rdbms::RegisterProcedure(const std::string& name, Procedure body) {
  procedures_[name] = std::move(body);
}

bool Rdbms::HasProcedure(const std::string& name) const {
  return procedures_.count(name) > 0;
}

void Rdbms::RegisterTrigger(TriggerDef trigger) {
  triggers_.push_back(std::move(trigger));
}

Result<BackupImage> Rdbms::Backup(const BackupOptions& opts) const {
  BackupImage image;
  image.source_name = name();
  image.as_of = commit_seq_;
  image.has_metadata = opts.include_metadata;
  image.has_sequences = opts.include_sequences;
  TxnView view;
  view.snapshot = commit_seq_;
  view.level = IsolationLevel::kSnapshot;
  for (const auto& [db_name, database] : databases_) {
    BackupImage::DatabaseImage di;
    di.name = db_name;
    for (const auto& [tname, table] : database.tables) {
      (void)tname;
      BackupImage::TableImage ti;
      ti.schema = table->schema();
      table->ScanRows(view, &ti.rows);
      if (opts.include_sequences) {
        ti.auto_increment = table->auto_increment_counter();
      }
      di.tables.push_back(std::move(ti));
    }
    if (opts.include_sequences) di.sequences = database.sequences;
    image.databases.push_back(std::move(di));
  }
  if (opts.include_metadata) {
    image.users.assign(users_.begin(), users_.end());
    for (const TriggerDef& t : triggers_) image.trigger_names.push_back(t.name);
  }
  return image;
}

Status Rdbms::Restore(const BackupImage& image) {
  if (!sessions_.empty()) {
    return Status::InvalidArgument("close sessions before restore");
  }
  databases_.clear();
  locks_.clear();
  binlog_.clear();
  commit_seq_ = image.as_of;
  for (const auto& di : image.databases) {
    Database database;
    database.name = di.name;
    for (const auto& ti : di.tables) {
      auto table = std::make_unique<VersionedTable>(ti.schema,
                                                    options_.physical_seed);
      TxnView load_view;
      load_view.id = next_txn_++;
      load_view.level = IsolationLevel::kReadCommitted;
      for (const sql::Row& row : ti.rows) {
        Result<RowId> rid = table->Insert(load_view, row, nullptr);
        if (!rid.ok()) return rid.status();
      }
      table->CommitTxn(load_view.id, commit_seq_ == 0 ? 1 : commit_seq_);
      if (image.has_sequences) {
        table->BumpAutoIncrement(ti.auto_increment - 1);
      }
      database.tables.emplace(ti.schema.name, std::move(table));
    }
    if (image.has_sequences) database.sequences = di.sequences;
    databases_.emplace(di.name, std::move(database));
  }
  if (commit_seq_ == 0) commit_seq_ = 1;
  if (image.has_metadata) {
    users_.clear();
    users_.insert(image.users.begin(), image.users.end());
  } else {
    // §4.1.5: a data-only clone loses the user catalog (and triggers);
    // only the bootstrap admin remains.
    users_.clear();
    users_.insert("admin");
    triggers_.clear();
  }
  if (!databases_.count("main")) {
    Database main;
    main.name = "main";
    databases_.emplace("main", std::move(main));
  }
  return Status::OK();
}

int64_t Rdbms::SequenceValue(const std::string& database,
                             const std::string& sequence) const {
  const Database* db = FindDatabase(database);
  if (db == nullptr) return 0;
  auto it = db->sequences.find(sequence);
  return it == db->sequences.end() ? 0 : it->second;
}

uint64_t Rdbms::TableRowCount(const std::string& database,
                              const std::string& table) const {
  const Database* db = FindDatabase(database);
  if (db == nullptr) return 0;
  auto it = db->tables.find(table);
  if (it == db->tables.end()) return 0;
  TxnView view;
  view.snapshot = commit_seq_;
  view.level = IsolationLevel::kSnapshot;
  return it->second->CountVisible(view);
}

}  // namespace replidb::engine

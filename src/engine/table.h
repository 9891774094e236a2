#ifndef REPLIDB_ENGINE_TABLE_H_
#define REPLIDB_ENGINE_TABLE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include "common/hashing.h"
#include <vector>

#include "common/result.h"
#include "engine/types.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace replidb::engine {

/// \brief Resolved table schema.
struct TableSchema {
  std::string name;
  std::vector<sql::ColumnDef> columns;
  int primary_key_index = -1;  ///< -1 if no PK.
  bool temporary = false;

  /// Builds from a parsed CREATE TABLE.
  static Result<TableSchema> FromCreate(const sql::CreateTableStmt& stmt);

  /// Index of a column by name, -1 if absent.
  int ColumnIndex(const std::string& name) const;
};

/// \brief The transaction's view used for visibility and conflict checks.
struct TxnView {
  TxnId id = 0;
  CommitSeq snapshot = 0;  ///< Committed-as-of horizon for reads.
  IsolationLevel level = IsolationLevel::kReadCommitted;
};

/// \brief MVCC storage for one table.
///
/// Each logical row (RowId) carries a version chain. Versions created by a
/// transaction become visible to others only after CommitTxn stamps them
/// with a commit sequence number. Conflict detection is eager and no-wait:
///  - under SI, writing a row whose newest version committed after the
///    writer's snapshot, or is uncommitted by another transaction, aborts
///    the writer (first-updater-wins, like PostgreSQL);
///  - under read-committed, only uncommitted-by-other conflicts abort (a
///    real engine would block on the row lock; no-wait models the lock
///    timeout and keeps the simulator synchronous);
///  - serializable-mode table locks live in the Rdbms lock manager, not
///    here.
class VersionedTable {
 public:
  VersionedTable(TableSchema schema, uint64_t physical_seed);
  /// Not copyable: the cached physical order points into rows_.
  VersionedTable(const VersionedTable&) = delete;
  VersionedTable& operator=(const VersionedTable&) = delete;

  const TableSchema& schema() const { return schema_; }

  /// Inserts a row (must match schema width). Enforces PK/unique
  /// constraints against all live or pending rows.
  Result<RowId> Insert(const TxnView& txn, sql::Row row, ExecStats* stats);

  /// Replaces the visible version of `row_id` with `new_row`.
  Status Update(const TxnView& txn, RowId row_id, sql::Row new_row,
                ExecStats* stats);

  /// Deletes the visible version of `row_id`.
  Status Delete(const TxnView& txn, RowId row_id, ExecStats* stats);

  /// Reverts the newest pending delete mark `txn` holds on `row_id`
  /// (statement-level atomicity support; see executor undo path).
  void UndoDelete(TxnId txn, RowId row_id);

  /// Appends every row visible to `txn` to `out`, in this replica's
  /// physical order (seeded hash of RowId — deliberately not the same on
  /// every replica; see RdbmsOptions::physical_seed).
  void Scan(const TxnView& txn,
            std::vector<std::pair<RowId, sql::Row>>* out,
            ExecStats* stats) const;

  /// Appends the rows Scan would return, in the same order, without
  /// their RowIds (backup images).
  void ScanRows(const TxnView& txn, std::vector<sql::Row>* out) const;

  /// Fetches the version of `row_id` visible to `txn`.
  Result<sql::Row> Get(const TxnView& txn, RowId row_id) const;

  /// Point lookup by primary key over rows visible to `txn`.
  /// Returns nullopt if not found. Requires a PK.
  std::optional<RowId> LookupPk(const TxnView& txn, const sql::Value& pk,
                                ExecStats* stats) const;

  /// Makes txn's pending changes durable at `commit_seq`. `gc_horizon` is
  /// the oldest snapshot any live transaction can read (vacuum): committed
  /// versions deleted at or before it are unreachable and are pruned from
  /// the touched chains.
  void CommitTxn(TxnId txn, CommitSeq commit_seq, CommitSeq gc_horizon = 0);

  /// Discards txn's pending changes.
  void RollbackTxn(TxnId txn);

  /// True if `txn` has pending (uncommitted) changes here.
  bool HasPending(TxnId txn) const { return pending_.count(txn) > 0; }

  /// Next auto-increment value; non-transactional, never rolled back
  /// (§4.3.2: holes are expected).
  int64_t NextAutoIncrement() { return auto_increment_++; }
  int64_t auto_increment_counter() const { return auto_increment_; }
  /// Raises the counter to at least `v` (used when inserts provide
  /// explicit values, like MySQL does).
  void BumpAutoIncrement(int64_t v) {
    if (v >= auto_increment_) auto_increment_ = v + 1;
  }

  /// Number of committed live rows as of `snapshot` (diagnostics).
  uint64_t CountVisible(const TxnView& txn) const;

  /// Order-insensitive content hash of the rows visible to `txn`
  /// (replica divergence detection).
  uint64_t ContentHash(const TxnView& txn) const;

  /// Incremental digest of the committed live row set: the XOR fold of
  /// per-row hashes, updated in CommitTxn as versions become (in)visible,
  /// so reading it is O(1) instead of an O(table) scan. Always equals
  /// ContentHash at a snapshot of the latest commit (audit subsystem).
  uint64_t digest() const { return digest_; }

 private:
  struct Version {
    sql::Row data;
    TxnId creator = 0;
    CommitSeq created = 0;               ///< 0 while uncommitted.
    TxnId deleter = 0;                   ///< 0 if not deleted.
    CommitSeq deleted = 0;               ///< 0 while delete uncommitted.
  };
  struct Chain {
    std::vector<Version> versions;  ///< Oldest first.
  };
  /// One RowId's place in this replica's physical order.
  struct PhysicalSlot {
    uint64_t key = 0;  ///< Mix64(rid ^ physical_seed_): the sort key.
    RowId rid = 0;
    const Chain* chain = nullptr;
  };

  /// Visibility of one version for `txn`.
  bool Visible(const TxnView& txn, const Version& v) const;
  /// Returns the visible version index in the chain, or -1.
  int VisibleIndex(const TxnView& txn, const Chain& chain) const;
  /// Every RowId in rows_, sorted by key. Mix64 is a bijection, so keys
  /// never tie and the order is a pure function of the RowId set.
  const std::vector<PhysicalSlot>& PhysicalOrder() const;
  /// Calls fn(slot, visible version) for each row visible to `txn`, in
  /// physical order.
  template <typename Fn>
  void ForEachVisible(const TxnView& txn, ExecStats* stats, Fn&& fn) const;

  Status CheckUnique(const TxnView& txn, const sql::Row& row,
                     std::optional<RowId> exclude_row);

  TableSchema schema_;
  uint64_t physical_seed_;
  std::map<RowId, Chain> rows_;
  /// PK value -> candidate chains. Entries may be stale (old PK values,
  /// rolled-back inserts); lookups verify against the chain.
  std::map<sql::Value, std::set<RowId>> pk_index_;
  RowId next_row_id_ = 1;
  int64_t auto_increment_ = 1;
  /// Running XOR fold over committed live rows; see digest().
  uint64_t digest_ = 0;
  /// txn -> row ids with pending versions (for commit/rollback).
  HashMap<TxnId, std::set<RowId>> pending_;
  /// Cached physical order (see PhysicalOrder). Only Insert adding a
  /// RowId and a rollback or vacuum erasing one change the RowId set, so
  /// only they mark it stale; the next scan rebuilds it.
  mutable std::vector<PhysicalSlot> physical_order_;
  mutable bool order_stale_ = false;
};

}  // namespace replidb::engine

#endif  // REPLIDB_ENGINE_TABLE_H_

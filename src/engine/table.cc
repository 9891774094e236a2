#include "engine/table.h"

#include <algorithm>

namespace replidb::engine {

namespace {
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Result<TableSchema> TableSchema::FromCreate(const sql::CreateTableStmt& stmt) {
  if (stmt.columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  TableSchema s;
  s.name = stmt.table.table;
  s.columns = stmt.columns;
  s.temporary = stmt.temporary;
  for (size_t i = 0; i < s.columns.size(); ++i) {
    const sql::ColumnDef& c = s.columns[i];
    for (size_t j = 0; j < i; ++j) {
      if (s.columns[j].name == c.name) {
        return Status::InvalidArgument("duplicate column " + c.name);
      }
    }
    if (c.primary_key) {
      if (s.primary_key_index >= 0) {
        return Status::InvalidArgument("multiple primary keys");
      }
      s.primary_key_index = static_cast<int>(i);
    }
    if (c.auto_increment && c.type != sql::ValueType::kInt) {
      return Status::InvalidArgument("AUTO_INCREMENT requires INT column");
    }
  }
  return s;
}

int TableSchema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

VersionedTable::VersionedTable(TableSchema schema, uint64_t physical_seed)
    : schema_(std::move(schema)), physical_seed_(physical_seed) {}

bool VersionedTable::Visible(const TxnView& txn, const Version& v) const {
  bool created_visible = (v.created != 0 && v.created <= txn.snapshot) ||
                         (txn.id != 0 && v.creator == txn.id);
  if (!created_visible) return false;
  if (v.deleter != 0 && v.deleter == txn.id) return false;  // Deleted by self.
  if (v.deleted != 0 && v.deleted <= txn.snapshot) return false;
  return true;
}

int VersionedTable::VisibleIndex(const TxnView& txn, const Chain& chain) const {
  for (int i = static_cast<int>(chain.versions.size()) - 1; i >= 0; --i) {
    if (Visible(txn, chain.versions[i])) return i;
  }
  return -1;
}

const std::vector<VersionedTable::PhysicalSlot>&
VersionedTable::PhysicalOrder() const {
  if (order_stale_) {
    // "Physical" order: a seeded shuffle standing in for page layout. Two
    // replicas with different seeds return unordered scans differently —
    // which is legal SQL, and the root of the LIMIT divergence of §4.3.2.
    physical_order_.clear();
    physical_order_.reserve(rows_.size());
    for (const auto& [rid, chain] : rows_) {
      physical_order_.push_back({Mix64(rid ^ physical_seed_), rid, &chain});
    }
    std::sort(physical_order_.begin(), physical_order_.end(),
              [](const PhysicalSlot& a, const PhysicalSlot& b) {
                return a.key < b.key;
              });
    order_stale_ = false;
  }
  return physical_order_;
}

template <typename Fn>
void VersionedTable::ForEachVisible(const TxnView& txn, ExecStats* stats,
                                    Fn&& fn) const {
  const std::vector<PhysicalSlot>& order = PhysicalOrder();
  const size_t n = order.size();
  for (size_t i = 0; i < n; ++i) {
    // The order is a shuffle of the heap: fetch ahead so the chain nodes
    // and their version arrays arrive before the loop needs them.
    if (i + 16 < n) __builtin_prefetch(order[i + 16].chain);
    if (i + 8 < n) __builtin_prefetch(order[i + 8].chain->versions.data());
    const PhysicalSlot& slot = order[i];
    const auto& versions = slot.chain->versions;
    if (stats) stats->rows_scanned += versions.size();
    int idx = VisibleIndex(txn, *slot.chain);
    if (idx < 0) continue;
    fn(slot, versions[idx]);
    if (stats) stats->rows_returned += 1;
  }
}

Status VersionedTable::CheckUnique(const TxnView& txn, const sql::Row& row,
                                   std::optional<RowId> exclude_row) {
  // Columns that must be unique: PK + UNIQUE.
  for (size_t ci = 0; ci < schema_.columns.size(); ++ci) {
    const sql::ColumnDef& col = schema_.columns[ci];
    bool must_be_unique =
        col.unique || static_cast<int>(ci) == schema_.primary_key_index;
    if (!must_be_unique) continue;
    const sql::Value& candidate = row[ci];
    if (candidate.is_null()) continue;

    // Checks one chain for a conflicting version; returns non-OK on clash.
    auto check_chain = [&](RowId rid, const Chain& chain) -> Status {
      if (exclude_row && *exclude_row == rid) return Status::OK();
      for (const Version& v : chain.versions) {
        if (v.data[ci].Compare(candidate) != 0) continue;
        // A version this transaction itself is deleting frees the value.
        if (v.deleter == txn.id && v.deleted == 0) continue;
        bool create_pending = (v.created == 0);
        bool committed_live =
            (v.created != 0 && v.deleted == 0 && v.deleter == 0);
        bool delete_pending = (v.deleter != 0 && v.deleted == 0);
        if (create_pending && v.creator != txn.id) {
          return Status::Deadlock("uncommitted row with duplicate " +
                                  col.name);
        }
        if (create_pending && v.creator == txn.id) {
          return Status::ConstraintViolation("duplicate value for " +
                                             col.name);
        }
        if (committed_live) {
          return Status::ConstraintViolation("duplicate value for " +
                                             col.name);
        }
        if (delete_pending && v.deleter != txn.id) {
          // Another transaction is deleting the conflicting row; a real
          // engine would block on its outcome.
          return Status::Deadlock("conflicting row being deleted");
        }
        // Deleted-and-committed, or being deleted by us: no conflict.
      }
      return Status::OK();
    };

    // The PK column has an index; other UNIQUE columns fall back to a scan.
    if (static_cast<int>(ci) == schema_.primary_key_index) {
      auto iit = pk_index_.find(candidate);
      if (iit == pk_index_.end()) continue;
      for (RowId rid : iit->second) {
        auto rit = rows_.find(rid);
        if (rit == rows_.end()) continue;  // Stale index entry.
        REPLIDB_RETURN_NOT_OK(check_chain(rid, rit->second));
      }
    } else {
      for (const auto& [rid, chain] : rows_) {
        REPLIDB_RETURN_NOT_OK(check_chain(rid, chain));
      }
    }
  }
  return Status::OK();
}

Result<RowId> VersionedTable::Insert(const TxnView& txn, sql::Row row,
                                     ExecStats* stats) {
  if (row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row width mismatch for " + schema_.name);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const sql::ColumnDef& col = schema_.columns[i];
    if (row[i].is_null() && col.not_null) {
      return Status::ConstraintViolation("NULL in NOT NULL column " +
                                         col.name);
    }
    // Numeric coercion into DOUBLE columns.
    if (col.type == sql::ValueType::kDouble &&
        row[i].type() == sql::ValueType::kInt) {
      row[i] = sql::Value::Double(static_cast<double>(row[i].AsInt()));
    }
  }
  REPLIDB_RETURN_NOT_OK(CheckUnique(txn, row, std::nullopt));

  if (schema_.primary_key_index >= 0) {
    const sql::Value& pk = row[schema_.primary_key_index];
    if (pk.type() == sql::ValueType::kInt &&
        schema_.columns[schema_.primary_key_index].auto_increment) {
      BumpAutoIncrement(pk.AsInt());
    }
  }

  RowId rid = next_row_id_++;
  if (schema_.primary_key_index >= 0) {
    pk_index_[row[schema_.primary_key_index]].insert(rid);
  }
  Version v;
  v.data = std::move(row);
  v.creator = txn.id;
  rows_[rid].versions.push_back(std::move(v));
  order_stale_ = true;
  pending_[txn.id].insert(rid);
  if (stats) {
    stats->rows_written += 1;
    stats->bytes_processed += 64;
  }
  return rid;
}

Status VersionedTable::Update(const TxnView& txn, RowId row_id,
                              sql::Row new_row, ExecStats* stats) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return Status::NotFound("row");
  Chain& chain = it->second;
  int idx = VisibleIndex(txn, chain);
  if (idx < 0) return Status::NotFound("row not visible");
  Version& cur = chain.versions[idx];

  // Conflict checks (no-wait).
  const Version& newest = chain.versions.back();
  if (newest.created == 0 && newest.creator != txn.id) {
    return Status::Deadlock("row locked by uncommitted writer");
  }
  if (cur.deleter != 0 && cur.deleter != txn.id && cur.deleted == 0) {
    return Status::Deadlock("row locked by uncommitted deleter");
  }
  if (txn.level == IsolationLevel::kSnapshot) {
    // First-updater-wins: the visible version must still be the newest.
    if (idx != static_cast<int>(chain.versions.size()) - 1 ||
        (cur.deleted != 0 && cur.deleted > txn.snapshot)) {
      return Status::Conflict("row updated by concurrent transaction");
    }
  }

  if (new_row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row width mismatch");
  }
  for (size_t i = 0; i < new_row.size(); ++i) {
    const sql::ColumnDef& col = schema_.columns[i];
    if (new_row[i].is_null() && col.not_null) {
      return Status::ConstraintViolation("NULL in NOT NULL column " +
                                         col.name);
    }
    if (col.type == sql::ValueType::kDouble &&
        new_row[i].type() == sql::ValueType::kInt) {
      new_row[i] = sql::Value::Double(static_cast<double>(new_row[i].AsInt()));
    }
  }
  // Uniqueness only needs rechecking for changed unique values.
  for (size_t ci = 0; ci < schema_.columns.size(); ++ci) {
    bool uniq = schema_.columns[ci].unique ||
                static_cast<int>(ci) == schema_.primary_key_index;
    if (uniq && cur.data[ci].Compare(new_row[ci]) != 0) {
      REPLIDB_RETURN_NOT_OK(CheckUnique(txn, new_row, row_id));
      break;
    }
  }

  if (schema_.primary_key_index >= 0) {
    int pki = schema_.primary_key_index;
    if (cur.data[pki].Compare(new_row[pki]) != 0) {
      pk_index_[new_row[pki]].insert(row_id);  // Old entry stays, tolerated.
    }
  }

  // If this txn already created the visible version, rewrite in place.
  if (cur.creator == txn.id && cur.created == 0) {
    cur.data = std::move(new_row);
  } else {
    cur.deleter = txn.id;
    Version nv;
    nv.data = std::move(new_row);
    nv.creator = txn.id;
    chain.versions.push_back(std::move(nv));
  }
  pending_[txn.id].insert(row_id);
  if (stats) {
    stats->rows_written += 1;
    stats->bytes_processed += 64;
  }
  return Status::OK();
}

Status VersionedTable::Delete(const TxnView& txn, RowId row_id,
                              ExecStats* stats) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return Status::NotFound("row");
  Chain& chain = it->second;
  int idx = VisibleIndex(txn, chain);
  if (idx < 0) return Status::NotFound("row not visible");
  Version& cur = chain.versions[idx];

  const Version& newest = chain.versions.back();
  if (newest.created == 0 && newest.creator != txn.id) {
    return Status::Deadlock("row locked by uncommitted writer");
  }
  if (cur.deleter != 0 && cur.deleter != txn.id && cur.deleted == 0) {
    return Status::Deadlock("row locked by uncommitted deleter");
  }
  if (txn.level == IsolationLevel::kSnapshot) {
    if (idx != static_cast<int>(chain.versions.size()) - 1 ||
        (cur.deleted != 0 && cur.deleted > txn.snapshot)) {
      return Status::Conflict("row updated by concurrent transaction");
    }
  }

  // Mark rather than erase, even for rows this txn inserted: commit stamps
  // created == deleted (never visible) and rollback removes the version;
  // marking keeps deletes undoable for statement-level atomicity.
  cur.deleter = txn.id;
  pending_[txn.id].insert(row_id);
  if (stats) stats->rows_written += 1;
  return Status::OK();
}

void VersionedTable::UndoDelete(TxnId txn, RowId row_id) {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return;
  auto& versions = it->second.versions;
  // Clear only the newest pending delete mark owned by txn: older marks
  // belong to earlier statements of the same transaction and must stand.
  for (int i = static_cast<int>(versions.size()) - 1; i >= 0; --i) {
    if (versions[i].deleter == txn && versions[i].deleted == 0) {
      versions[i].deleter = 0;
      return;
    }
  }
}

void VersionedTable::Scan(const TxnView& txn,
                          std::vector<std::pair<RowId, sql::Row>>* out,
                          ExecStats* stats) const {
  out->reserve(out->size() + PhysicalOrder().size());
  ForEachVisible(txn, stats, [out](const PhysicalSlot& slot, const Version& v) {
    out->emplace_back(slot.rid, v.data);
  });
}

void VersionedTable::ScanRows(const TxnView& txn,
                              std::vector<sql::Row>* out) const {
  out->reserve(out->size() + PhysicalOrder().size());
  ForEachVisible(txn, nullptr, [out](const PhysicalSlot&, const Version& v) {
    out->push_back(v.data);
  });
}

Result<sql::Row> VersionedTable::Get(const TxnView& txn, RowId row_id) const {
  auto it = rows_.find(row_id);
  if (it == rows_.end()) return Status::NotFound("row");
  int idx = VisibleIndex(txn, it->second);
  if (idx < 0) return Status::NotFound("row not visible");
  return it->second.versions[idx].data;
}

std::optional<RowId> VersionedTable::LookupPk(const TxnView& txn,
                                              const sql::Value& pk,
                                              ExecStats* stats) const {
  if (schema_.primary_key_index < 0) return std::nullopt;
  int pki = schema_.primary_key_index;
  auto iit = pk_index_.find(pk);
  if (iit == pk_index_.end()) return std::nullopt;
  for (RowId rid : iit->second) {
    auto rit = rows_.find(rid);
    if (rit == rows_.end()) continue;  // Stale index entry.
    if (stats) stats->rows_scanned += 1;
    int idx = VisibleIndex(txn, rit->second);
    if (idx >= 0 && rit->second.versions[idx].data[pki].Compare(pk) == 0) {
      if (stats) stats->used_index = true;
      return rid;
    }
  }
  return std::nullopt;
}

void VersionedTable::CommitTxn(TxnId txn, CommitSeq commit_seq,
                               CommitSeq gc_horizon) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  for (RowId rid : it->second) {
    auto rit = rows_.find(rid);
    if (rit == rows_.end()) continue;
    auto& versions = rit->second.versions;
    for (Version& v : versions) {
      // Digest maintenance: a version enters the committed live set when
      // its pending create commits without a pending delete, and leaves it
      // when a pending delete on a previously committed version commits.
      // Insert-then-delete inside one transaction nets to no change.
      bool create_pending = (v.creator == txn && v.created == 0);
      bool delete_pending = (v.deleter == txn && v.deleted == 0);
      if (create_pending != delete_pending &&
          (create_pending || v.created != 0)) {
        digest_ ^= Mix64(sql::HashRow(v.data));
      }
      if (create_pending) v.created = commit_seq;
      if (delete_pending) v.deleted = commit_seq;
    }
    // Inline vacuum: committed-dead versions below the horizon are
    // invisible to every live and future snapshot.
    if (gc_horizon > 0) {
      for (auto vit = versions.begin(); vit != versions.end();) {
        if (vit->created != 0 && vit->deleted != 0 &&
            vit->deleted <= gc_horizon) {
          vit = versions.erase(vit);
        } else {
          ++vit;
        }
      }
      if (versions.empty()) {
        rows_.erase(rit);
        order_stale_ = true;
      }
    }
  }
  pending_.erase(it);
}

void VersionedTable::RollbackTxn(TxnId txn) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  for (RowId rid : it->second) {
    auto rit = rows_.find(rid);
    if (rit == rows_.end()) continue;
    auto& versions = rit->second.versions;
    for (auto vit = versions.begin(); vit != versions.end();) {
      if (vit->creator == txn && vit->created == 0) {
        vit = versions.erase(vit);
        continue;
      }
      if (vit->deleter == txn && vit->deleted == 0) {
        vit->deleter = 0;  // Undo the delete intent.
      }
      ++vit;
    }
    if (versions.empty()) {
      rows_.erase(rit);
      order_stale_ = true;
    }
  }
  pending_.erase(it);
}

uint64_t VersionedTable::CountVisible(const TxnView& txn) const {
  uint64_t n = 0;
  for (const auto& [rid, chain] : rows_) {
    (void)rid;
    if (VisibleIndex(txn, chain) >= 0) ++n;
  }
  return n;
}

uint64_t VersionedTable::ContentHash(const TxnView& txn) const {
  // Order-insensitive: XOR of row hashes, so physical order differences do
  // not register as divergence — only actual data differences do.
  uint64_t h = 0;
  for (const auto& [rid, chain] : rows_) {
    (void)rid;
    int idx = VisibleIndex(txn, chain);
    if (idx >= 0) h ^= Mix64(sql::HashRow(chain.versions[idx].data));
  }
  return h;
}

const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadCommitted:
      return "read-committed";
    case IsolationLevel::kSnapshot:
      return "snapshot";
    case IsolationLevel::kSerializable:
      return "serializable";
  }
  return "?";
}

}  // namespace replidb::engine

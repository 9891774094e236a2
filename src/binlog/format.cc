#include "binlog/format.h"

#include <array>
#include <cstring>

#include "ship/codec.h"
#include "sql/value.h"

namespace replidb::binlog {
namespace {

// ---------------------------------------------------------------------------
// Little-endian integer + varint + value primitives. Self-contained so the
// segment format is stable even if the ship codec evolves its batch
// framing around the shared entry payload.
// ---------------------------------------------------------------------------

void PutFixed32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

uint32_t GetFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void PutFixed64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutString(std::string_view s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s.data(), s.size());
}

/// Bounded reader over a payload; every getter fails sticky on overrun.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  uint64_t Varint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size() || shift > 63) return Fail();
      uint8_t b = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  uint64_t Fixed64() {
    if (pos_ + 8 > data_.size()) return Fail();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  uint8_t Byte() {
    if (pos_ >= data_.size()) return static_cast<uint8_t>(Fail());
    return static_cast<uint8_t>(data_[pos_++]);
  }

  std::string String() {
    uint64_t n = Varint();
    if (!ok_ || pos_ + n > data_.size()) {
      Fail();
      return std::string();
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

 private:
  uint64_t Fail() {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void PutValue(const sql::Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case sql::ValueType::kNull:
      break;
    case sql::ValueType::kInt:
      PutFixed64(static_cast<uint64_t>(v.AsInt()), out);
      break;
    case sql::ValueType::kDouble: {
      uint64_t bits = 0;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      PutFixed64(bits, out);
      break;
    }
    case sql::ValueType::kString:
      PutString(v.AsString(), out);
      break;
    case sql::ValueType::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
  }
}

sql::Value GetValue(Reader* r) {
  switch (static_cast<sql::ValueType>(r->Byte())) {
    case sql::ValueType::kNull:
      return sql::Value::Null();
    case sql::ValueType::kInt:
      return sql::Value::Int(static_cast<int64_t>(r->Fixed64()));
    case sql::ValueType::kDouble: {
      uint64_t bits = r->Fixed64();
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      return sql::Value::Double(d);
    }
    case sql::ValueType::kString:
      return sql::Value::String(r->String());
    case sql::ValueType::kBool:
      return sql::Value::Bool(r->Byte() != 0);
  }
  return sql::Value::Null();
}

void PutRow(const sql::Row& row, std::string* out) {
  PutVarint(row.size(), out);
  for (const sql::Value& v : row) PutValue(v, out);
}

sql::Row GetRow(Reader* r) {
  sql::Row row;
  uint64_t n = r->Varint();
  for (uint64_t i = 0; i < n && r->ok(); ++i) row.push_back(GetValue(r));
  return row;
}

constexpr uint32_t kCrcTableSeed = 0xedb88320u;  // Reflected IEEE poly.

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kCrcTableSeed ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  crc ^= 0xffffffffu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void PutRecord(RecordType type, std::string_view payload, std::string* out) {
  // CRC covers type+flags+len+payload, i.e. everything after the crc
  // field itself; magic is a frame-sync aid, not integrity data.
  const size_t start = out->size();
  out->reserve(start + kRecordHeaderBytes + payload.size());
  PutFixed32(kRecordMagic, out);
  out->push_back(static_cast<char>(type));
  out->push_back(0);  // flags
  PutFixed32(static_cast<uint32_t>(payload.size()), out);
  uint32_t crc = Crc32(std::string_view(*out).substr(start + 4, 6));
  PutFixed32(Crc32(payload, crc), out);
  out->append(payload.data(), payload.size());
}

Status ParseRecord(std::string_view data, RecordView* out) {
  if (data.size() < kRecordHeaderBytes) {
    return Status::InvalidArgument("binlog record: truncated header");
  }
  if (GetFixed32(data.data()) != kRecordMagic) {
    return Status::InvalidArgument("binlog record: bad magic");
  }
  uint8_t type = static_cast<uint8_t>(data[4]);
  uint32_t len = GetFixed32(data.data() + 6);
  uint32_t crc = GetFixed32(data.data() + 10);
  if (data.size() < kRecordHeaderBytes + len) {
    return Status::InvalidArgument("binlog record: torn payload");
  }
  // type+flags+len as written, then the payload.
  if (Crc32(data.substr(kRecordHeaderBytes, len), Crc32(data.substr(4, 6))) !=
      crc) {
    return Status::InvalidArgument("binlog record: CRC mismatch");
  }
  if (type != static_cast<uint8_t>(RecordType::kEntry) &&
      type != static_cast<uint8_t>(RecordType::kCheckpoint)) {
    return Status::InvalidArgument("binlog record: unknown type");
  }
  out->type = static_cast<RecordType>(type);
  out->payload = data.substr(kRecordHeaderBytes, len);
  out->frame_bytes = kRecordHeaderBytes + len;
  return Status::OK();
}

std::string EncodeEntryPayload(const middleware::ReplicationEntry& entry) {
  // One-entry batch through the ship codec: the log and the wire share a
  // deterministic format, and DecodeBatch's hardening against malformed
  // input carries over to log recovery for free.
  ship::CodecOptions opts;
  return ship::EncodeBatch({entry}, opts).payload;
}

Result<middleware::ReplicationEntry> DecodeEntryPayload(
    std::string_view payload) {
  Result<std::vector<middleware::ReplicationEntry>> batch =
      ship::DecodeBatch(payload);
  REPLIDB_RETURN_NOT_OK(batch.status());
  if (batch.value().size() != 1) {
    return Status::InvalidArgument("binlog entry payload: not one entry");
  }
  return std::move(batch.value()[0]);
}

std::string EncodeCheckpointPayload(const CheckpointRecord& cp) {
  std::string out;
  PutVarint(cp.version, &out);
  PutFixed64(static_cast<uint64_t>(cp.taken_at_us), &out);
  PutVarint(cp.digests.size(), &out);
  for (const auto& [table, digest] : cp.digests) {
    PutString(table, &out);
    PutFixed64(digest, &out);
  }
  const engine::BackupImage& img = cp.image;
  PutString(img.source_name, &out);
  PutVarint(img.as_of, &out);
  out.push_back(img.has_metadata ? 1 : 0);
  out.push_back(img.has_sequences ? 1 : 0);
  PutVarint(img.databases.size(), &out);
  for (const auto& db : img.databases) {
    PutString(db.name, &out);
    PutVarint(db.tables.size(), &out);
    for (const auto& t : db.tables) {
      PutString(t.schema.name, &out);
      PutVarint(t.schema.columns.size(), &out);
      for (const sql::ColumnDef& c : t.schema.columns) {
        PutString(c.name, &out);
        out.push_back(static_cast<char>(c.type));
        uint8_t bits = (c.primary_key ? 1 : 0) | (c.auto_increment ? 2 : 0) |
                       (c.unique ? 4 : 0) | (c.not_null ? 8 : 0);
        out.push_back(static_cast<char>(bits));
      }
      PutFixed64(static_cast<uint64_t>(t.schema.primary_key_index), &out);
      out.push_back(t.schema.temporary ? 1 : 0);
      PutFixed64(static_cast<uint64_t>(t.auto_increment), &out);
      PutVarint(t.rows.size(), &out);
      for (const sql::Row& row : t.rows) PutRow(row, &out);
    }
    PutVarint(db.sequences.size(), &out);
    for (const auto& [name, next] : db.sequences) {
      PutString(name, &out);
      PutFixed64(static_cast<uint64_t>(next), &out);
    }
  }
  PutVarint(img.users.size(), &out);
  for (const std::string& u : img.users) PutString(u, &out);
  PutVarint(img.trigger_names.size(), &out);
  for (const std::string& t : img.trigger_names) PutString(t, &out);
  return out;
}

Result<CheckpointRecord> DecodeCheckpointPayload(std::string_view payload) {
  Reader r(payload);
  CheckpointRecord cp;
  cp.version = r.Varint();
  cp.taken_at_us = static_cast<int64_t>(r.Fixed64());
  uint64_t ndig = r.Varint();
  for (uint64_t i = 0; i < ndig && r.ok(); ++i) {
    std::string table = r.String();
    uint64_t digest = r.Fixed64();
    cp.digests.emplace_back(std::move(table), digest);
  }
  engine::BackupImage& img = cp.image;
  img.source_name = r.String();
  img.as_of = r.Varint();
  img.has_metadata = r.Byte() != 0;
  img.has_sequences = r.Byte() != 0;
  uint64_t ndb = r.Varint();
  for (uint64_t d = 0; d < ndb && r.ok(); ++d) {
    engine::BackupImage::DatabaseImage db;
    db.name = r.String();
    uint64_t nt = r.Varint();
    for (uint64_t ti = 0; ti < nt && r.ok(); ++ti) {
      engine::BackupImage::TableImage t;
      t.schema.name = r.String();
      uint64_t nc = r.Varint();
      for (uint64_t ci = 0; ci < nc && r.ok(); ++ci) {
        sql::ColumnDef c;
        c.name = r.String();
        c.type = static_cast<sql::ValueType>(r.Byte());
        uint8_t bits = r.Byte();
        c.primary_key = (bits & 1) != 0;
        c.auto_increment = (bits & 2) != 0;
        c.unique = (bits & 4) != 0;
        c.not_null = (bits & 8) != 0;
        t.schema.columns.push_back(std::move(c));
      }
      t.schema.primary_key_index = static_cast<int>(r.Fixed64());
      t.schema.temporary = r.Byte() != 0;
      t.auto_increment = static_cast<int64_t>(r.Fixed64());
      uint64_t nr = r.Varint();
      for (uint64_t ri = 0; ri < nr && r.ok(); ++ri) {
        t.rows.push_back(GetRow(&r));
      }
      db.tables.push_back(std::move(t));
    }
    uint64_t ns = r.Varint();
    for (uint64_t si = 0; si < ns && r.ok(); ++si) {
      std::string name = r.String();
      int64_t next = static_cast<int64_t>(r.Fixed64());
      db.sequences[name] = next;
    }
    img.databases.push_back(std::move(db));
  }
  uint64_t nu = r.Varint();
  for (uint64_t i = 0; i < nu && r.ok(); ++i) img.users.push_back(r.String());
  uint64_t ntr = r.Varint();
  for (uint64_t i = 0; i < ntr && r.ok(); ++i) {
    img.trigger_names.push_back(r.String());
  }
  if (!r.ok()) {
    return Status::InvalidArgument("checkpoint payload: truncated");
  }
  return cp;
}

}  // namespace replidb::binlog

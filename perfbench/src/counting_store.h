#ifndef REPLIDB_PERFBENCH_COUNTING_STORE_H_
#define REPLIDB_PERFBENCH_COUNTING_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "binlog/log_store.h"

namespace replidb::perfbench {

/// Operation and byte counts seen by a CountingLogStore.
struct StoreCounts {
  uint64_t appends = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t reads = 0;
  uint64_t bytes_read = 0;  ///< Bytes returned by Read (whole segments).
};

/// \brief LogStore decorator that forwards every call to an inner store
/// and counts appends, syncs and the bytes each Read hands back. Read
/// returns a whole segment by value, so bytes_read is the copy volume a
/// cursor pays per segment it opens.
class CountingLogStore final : public binlog::LogStore {
 public:
  explicit CountingLogStore(std::unique_ptr<binlog::LogStore> inner)
      : inner_(std::move(inner)) {}

  const StoreCounts& counts() const { return counts_; }

  Status Create(uint64_t segment) override { return inner_->Create(segment); }
  Status Append(uint64_t segment, std::string_view data) override {
    ++counts_.appends;
    counts_.bytes_appended += data.size();
    return inner_->Append(segment, data);
  }
  Status Sync(uint64_t segment) override {
    ++counts_.syncs;
    return inner_->Sync(segment);
  }
  Result<std::string> Read(uint64_t segment) const override {
    Result<std::string> r = inner_->Read(segment);
    ++counts_.reads;
    if (r.ok()) counts_.bytes_read += r.value().size();
    return r;
  }
  Status Truncate(uint64_t segment, uint64_t size) override {
    return inner_->Truncate(segment, size);
  }
  Status Delete(uint64_t segment) override { return inner_->Delete(segment); }
  std::vector<uint64_t> List() const override { return inner_->List(); }
  Status WriteMeta(const std::string& key, std::string_view value) override {
    return inner_->WriteMeta(key, value);
  }
  Result<std::string> ReadMeta(const std::string& key) const override {
    return inner_->ReadMeta(key);
  }
  void DropUnsynced() override { inner_->DropUnsynced(); }
  std::string DebugSerialize() const override {
    return inner_->DebugSerialize();
  }

 private:
  std::unique_ptr<binlog::LogStore> inner_;
  mutable StoreCounts counts_;
};

}  // namespace replidb::perfbench

#endif  // REPLIDB_PERFBENCH_COUNTING_STORE_H_

#ifndef REPLIDB_PERFBENCH_SPANS_H_
#define REPLIDB_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace replidb::perfbench {

/// Host wall clock in nanoseconds (steady, process-relative origin).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief One timed interval of the benchmark's own calls into a layer.
/// `parent` is the index of the enclosing span (-1 for a root); spans of
/// one repetition share `run_id`. `items` is the number of units of work
/// the span covered (statements parsed, entries appended, ...), so ratios
/// are taken where the work happened.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run_id = 0;
  uint64_t items = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief In-memory span store. Nothing is written until WriteJson, so
/// recording costs two clock reads and a vector append per span.
class SpanRecorder {
 public:
  void set_run_id(int run_id) { run_id_ = run_id; }

  /// Opens a span under the innermost open one; spans close in reverse
  /// order of opening (ScopedSpan guarantees it).
  int Begin(const std::string& name);
  void End(int id, uint64_t items = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by the span's direct children.
  int64_t SelfNs(int id) const;

  /// Chrome-trace JSON ("X" events, one track per run id; parent, items
  /// and self time in args). Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  int run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec_ != nullptr ? rec_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t items) { items_ = items; }

 private:
  SpanRecorder* rec_;
  int id_;
  uint64_t items_ = 0;
};

}  // namespace replidb::perfbench

#endif  // REPLIDB_PERFBENCH_SPANS_H_

#include "spans.h"

#include <cstdio>
#include <utility>

namespace replidb::perfbench {

int SpanRecorder::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id, uint64_t items) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  s.items = items;
  // ScopedSpan closes spans innermost-first, so `id` is the top.
  open_.pop_back();
}

namespace {

// Spans nest as a stack, so the children of one span never overlap each
// other and lie inside it: the time they cover is their summed duration.
int64_t SelfOf(const Span& s, const std::vector<Span>& all,
               const std::vector<int>& kids) {
  int64_t covered = 0;
  for (int k : kids) covered += all[static_cast<size_t>(k)].duration_ns();
  return s.duration_ns() - covered;
}

}  // namespace

int64_t SpanRecorder::SelfNs(int id) const {
  std::vector<int> kids;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) kids.push_back(static_cast<int>(i));
  }
  return SelfOf(spans_[static_cast<size_t>(id)], spans_, kids);
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::vector<std::vector<int>> kids(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p >= 0) kids[static_cast<size_t>(p)].push_back(static_cast<int>(i));
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run_id\":%d,\"items\":%llu,"
                 "\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.run_id,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, i, s.parent,
                 s.run_id, static_cast<unsigned long long>(s.items),
                 static_cast<double>(SelfOf(s, spans_, kids[i])) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace replidb::perfbench

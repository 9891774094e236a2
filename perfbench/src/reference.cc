#include "reference.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spans.h"

namespace replidb::perfbench {

namespace {

// Keeps the kernel's result observable so the work cannot be elided.
volatile uint64_t g_sink = 0;

uint64_t Kernel() {
  uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t sum = 0;
  std::priority_queue<std::pair<uint64_t, uint64_t>,
                      std::vector<std::pair<uint64_t, uint64_t>>,
                      std::greater<>>
      heap;
  std::unordered_map<uint64_t, std::string> map;
  for (uint64_t i = 0; i < 100000; ++i) {
    uint64_t v = next();
    heap.emplace(v % 1000000, i);
    if (heap.size() > 64) {
      sum += heap.top().second;
      heap.pop();
    }
    map[v % 4096] = std::to_string(v);
    if (i % 3 == 0) map.erase(next() % 4096);
  }
  std::vector<double> d(50000);
  for (double& e : d) e = static_cast<double>(next() % 100000);
  std::sort(d.begin(), d.end());
  return sum + map.size() + static_cast<uint64_t>(d[d.size() / 2]);
}

}  // namespace

double ReferenceKernelSeconds() {
  int64_t t0 = NowNs();
  g_sink = g_sink + Kernel();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

}  // namespace replidb::perfbench

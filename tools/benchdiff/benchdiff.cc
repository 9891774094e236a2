// benchdiff — compares two bench trajectories (BENCH_<scenario>.json files
// produced by bench/bench_util.h's BenchReport) with per-metric tolerance
// bands, so CI can fail on a throughput / latency / amplification
// regression instead of a human eyeballing bench stdout.
//
// Usage:
//   benchdiff [options] OLD.json NEW.json     compare two reports
//   benchdiff [options] OLD_DIR NEW_DIR       compare every BENCH_*.json in
//                                             OLD_DIR against NEW_DIR
//   benchdiff --self-test                     run built-in checks
//
// Options:
//   --tol PCT    override every relative tolerance band with PCT percent
//   --abs VALUE  extra absolute slack added to every band
//   --verbose    print every metric, not just regressions
//
// Exit codes: 0 = within tolerance, 1 = regression(s), 2 = usage/IO error.
//
// Direction and width of each band are keyed off the metric name (see
// kRules below): ops_per_sec must not drop, p99_ms / bytes_per_txn must
// not rise, lag metrics get a wider band plus absolute slack, and
// wall-clock-derived metrics (events_per_sec) are informational only. The
// simulator is deterministic, so a rerun of the same build is
// bit-identical; the bands only absorb legitimate behavioural drift from
// code changes.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

namespace {

struct Report {
  std::string scenario;
  std::map<std::string, double> metrics;
};

// --- minimal parser for the BenchReport schema ------------------------------
//
// {"schema":1,"scenario":"<name>","metrics":{"<key>":<number>,...}}
// No nesting beyond this, no arrays, no string values inside metrics.

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
}

std::optional<std::string> ParseString(const std::string& s, size_t* i) {
  SkipWs(s, i);
  if (*i >= s.size() || s[*i] != '"') return std::nullopt;
  ++*i;
  std::string out;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\' && *i + 1 < s.size()) ++*i;  // Keep escaped char as-is.
    out += s[(*i)++];
  }
  if (*i >= s.size()) return std::nullopt;
  ++*i;  // Closing quote.
  return out;
}

std::optional<double> ParseNumber(const std::string& s, size_t* i) {
  SkipWs(s, i);
  size_t start = *i;
  while (*i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[*i])) || s[*i] == '-' ||
          s[*i] == '+' || s[*i] == '.' || s[*i] == 'e' || s[*i] == 'E' ||
          s[*i] == 'n' || s[*i] == 'a' || s[*i] == 'i' || s[*i] == 'f')) {
    ++*i;  // Accepts nan/inf spellings too; strtod validates.
  }
  if (*i == start) return std::nullopt;
  const std::string tok = s.substr(start, *i - start);
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str()) return std::nullopt;
  return v;
}

bool Expect(const std::string& s, size_t* i, char c) {
  SkipWs(s, i);
  if (*i < s.size() && s[*i] == c) {
    ++*i;
    return true;
  }
  return false;
}

std::optional<Report> ParseReport(const std::string& body) {
  Report r;
  size_t i = 0;
  if (!Expect(body, &i, '{')) return std::nullopt;
  bool saw_metrics = false;
  while (true) {
    auto key = ParseString(body, &i);
    if (!key) return std::nullopt;
    if (!Expect(body, &i, ':')) return std::nullopt;
    if (*key == "scenario") {
      auto v = ParseString(body, &i);
      if (!v) return std::nullopt;
      r.scenario = *v;
    } else if (*key == "metrics") {
      if (!Expect(body, &i, '{')) return std::nullopt;
      SkipWs(body, &i);
      if (i < body.size() && body[i] == '}') {
        ++i;  // Empty metrics object.
      } else {
        while (true) {
          auto name = ParseString(body, &i);
          if (!name) return std::nullopt;
          if (!Expect(body, &i, ':')) return std::nullopt;
          auto value = ParseNumber(body, &i);
          if (!value) return std::nullopt;
          r.metrics[*name] = *value;
          if (Expect(body, &i, ',')) continue;
          if (Expect(body, &i, '}')) break;
          return std::nullopt;
        }
      }
      saw_metrics = true;
    } else {
      // schema (or unknown scalar): a number we don't interpret.
      if (!ParseNumber(body, &i)) return std::nullopt;
    }
    if (Expect(body, &i, ',')) continue;
    if (Expect(body, &i, '}')) break;
    return std::nullopt;
  }
  if (!saw_metrics) return std::nullopt;
  return r;
}

std::optional<Report> LoadReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseReport(ss.str());
}

// --- tolerance rules --------------------------------------------------------

enum class Direction {
  kHigherBetter,  ///< Fails when NEW drops below OLD - band.
  kLowerBetter,   ///< Fails when NEW rises above OLD + band.
  kStable,        ///< Fails when |NEW - OLD| exceeds the band.
  kInfo,          ///< Never fails (wall-clock-derived or freeform).
};

struct Rule {
  const char* pattern;  ///< Substring matched against the metric name.
  Direction dir;
  double rel_tol;    ///< Fraction of |old| the value may move.
  double abs_slack;  ///< Absolute slack added to the band.
};

// First match wins; more specific patterns go first. The default (no
// match) is a symmetric 25% band: any metric a bench author invents is
// still guarded against silent large drift.
constexpr Rule kRules[] = {
    // Critical-path attribution (path_<chain>_<outcome>_<stage>_*): the
    // shape is a diagnosis surface, not a pass/fail one — a fix that moves
    // time between stages is not a regression. Must precede the _ms/_pct
    // suffix rules.
    {"path_", Direction::kInfo, 0, 0},
    {"events_per_sec", Direction::kInfo, 0, 0},  // Wall-clock-derived.
    {"sim_events", Direction::kInfo, 0, 0},  // Any behaviour change moves it.
    {"ops_per_sec", Direction::kHigherBetter, 0.10, 5.0},
    {"msgs_per_sec", Direction::kHigherBetter, 0.10, 5.0},
    {"speedup", Direction::kHigherBetter, 0.10, 0.1},
    {"availability_pct", Direction::kHigherBetter, 0.01, 0.25},
    {"compression", Direction::kHigherBetter, 0.10, 0.05},
    {"converged_cells", Direction::kHigherBetter, 0.0, 0.0},
    {"diverged_cells", Direction::kLowerBetter, 0.0, 0.0},
    {"seq_drift_cells", Direction::kLowerBetter, 0.0, 0.0},
    {"error_cells", Direction::kLowerBetter, 0.0, 0.0},
    {"refused_cells", Direction::kStable, 0.0, 0.0},
    {"quorum_writes_ok", Direction::kLowerBetter, 0.0, 0.0},
    {"quorum_writes_refused", Direction::kStable, 0.0, 0.0},
    {"diverged_after_heal", Direction::kLowerBetter, 0.0, 0.0},
    {"bytes_per_txn", Direction::kLowerBetter, 0.10, 64.0},
    // Deterministic work counter: log frames parsed per shipped entry.
    // About 1 when ship cursors seek; a rescan multiplies it.
    {"frames_per_entry", Direction::kLowerBetter, 0.05, 0.1},
    // Deterministic work counter: SQL texts parsed per client statement.
    // About 1 when only the controller parses; a replica re-parse adds
    // one per statement and one per BEGIN/COMMIT.
    {"parses_per_stmt", Direction::kLowerBetter, 0.05, 0.1},
    {"abort_pct", Direction::kLowerBetter, 0.20, 1.0},
    {"peak_lag", Direction::kLowerBetter, 0.25, 50.0},
    {"final_lag", Direction::kLowerBetter, 0.25, 50.0},
    {"backlog_entries", Direction::kStable, 0.25, 50.0},
    {"lost_txns", Direction::kLowerBetter, 0.25, 20.0},
    {"suspicions", Direction::kStable, 0.50, 2.0},
    {"outage_ms", Direction::kLowerBetter, 0.25, 100.0},
    {"_mb", Direction::kLowerBetter, 0.10, 0.05},
    {"_ms", Direction::kLowerBetter, 0.20, 0.5},
    {"_s", Direction::kLowerBetter, 0.20, 1.0},
};

const Rule* FindRule(const std::string& name) {
  for (const Rule& r : kRules) {
    const size_t plen = std::strlen(r.pattern);
    if (r.pattern[0] == '_') {
      // Suffix patterns: "_ms" must end the name, so "p99_ms" matches but
      // "ms_budget" does not.
      if (name.size() >= plen &&
          name.compare(name.size() - plen, plen, r.pattern) == 0) {
        return &r;
      }
    } else if (name.find(r.pattern) != std::string::npos) {
      return &r;
    }
  }
  return nullptr;
}

struct Options {
  double tol_override = -1;  ///< Percent; <0 = use per-rule bands.
  double abs_extra = 0;
  bool verbose = false;
};

struct MetricVerdict {
  bool regressed = false;
  std::string line;
};

MetricVerdict CompareMetric(const std::string& name, double oldv, double newv,
                            const Options& opt) {
  const Rule* rule = FindRule(name);
  Direction dir = rule ? rule->dir : Direction::kStable;
  double rel = rule ? rule->rel_tol : 0.25;
  double abs_slack = rule ? rule->abs_slack : 0.0;
  if (opt.tol_override >= 0) rel = opt.tol_override / 100.0;
  abs_slack += opt.abs_extra;

  const double band = std::fabs(oldv) * rel + abs_slack;
  const double delta = newv - oldv;
  bool regressed = false;
  switch (dir) {
    case Direction::kHigherBetter:
      regressed = delta < -band;
      break;
    case Direction::kLowerBetter:
      regressed = delta > band;
      break;
    case Direction::kStable:
      regressed = std::fabs(delta) > band;
      break;
    case Direction::kInfo:
      break;
  }
  char buf[256];
  const char* tag = regressed ? "REGRESSION"
                    : dir == Direction::kInfo ? "info"
                                              : "ok";
  std::snprintf(buf, sizeof(buf), "  %-10s %-28s %14.6g -> %-14.6g (band %.6g)",
                tag, name.c_str(), oldv, newv, band);
  return {regressed, buf};
}

int CompareReports(const Report& oldr, const Report& newr, const Options& opt) {
  int regressions = 0;
  std::printf("scenario %s:\n", oldr.scenario.c_str());
  for (const auto& [name, oldv] : oldr.metrics) {
    auto it = newr.metrics.find(name);
    if (it == newr.metrics.end()) {
      std::printf("  REGRESSION %-28s missing from new report\n",
                  name.c_str());
      ++regressions;
      continue;
    }
    MetricVerdict v = CompareMetric(name, oldv, it->second, opt);
    if (v.regressed) ++regressions;
    if (v.regressed || opt.verbose) std::printf("%s\n", v.line.c_str());
  }
  for (const auto& [name, newv] : newr.metrics) {
    if (oldr.metrics.count(name) == 0 && opt.verbose) {
      std::printf("  new        %-28s %.6g (no baseline)\n", name.c_str(),
                  newv);
    }
  }
  if (regressions == 0) {
    std::printf("  ok: %zu metrics within tolerance\n", oldr.metrics.size());
  }
  return regressions;
}

bool IsDir(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<std::string> ListBenchJson(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (struct dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      out.push_back(name);
    }
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

int RunDiff(const std::string& old_path, const std::string& new_path,
            const Options& opt) {
  int regressions = 0;
  if (IsDir(old_path) && IsDir(new_path)) {
    std::vector<std::string> files = ListBenchJson(old_path);
    if (files.empty()) {
      std::fprintf(stderr, "benchdiff: no BENCH_*.json under %s\n",
                   old_path.c_str());
      return 2;
    }
    for (const std::string& f : files) {
      auto oldr = LoadReport(old_path + "/" + f);
      if (!oldr) {
        std::fprintf(stderr, "benchdiff: unparsable baseline %s/%s\n",
                     old_path.c_str(), f.c_str());
        return 2;
      }
      auto newr = LoadReport(new_path + "/" + f);
      if (!newr) {
        std::printf("scenario %s:\n  REGRESSION report %s missing/unparsable "
                    "in %s\n",
                    oldr->scenario.c_str(), f.c_str(), new_path.c_str());
        ++regressions;
        continue;
      }
      regressions += CompareReports(*oldr, *newr, opt);
    }
  } else {
    auto oldr = LoadReport(old_path);
    auto newr = LoadReport(new_path);
    if (!oldr || !newr) {
      std::fprintf(stderr, "benchdiff: cannot parse %s\n",
                   (!oldr ? old_path : new_path).c_str());
      return 2;
    }
    regressions = CompareReports(*oldr, *newr, opt);
  }
  if (regressions > 0) {
    std::printf("\nbenchdiff: %d regression(s) beyond tolerance\n",
                regressions);
    return 1;
  }
  std::printf("\nbenchdiff: all metrics within tolerance\n");
  return 0;
}

// --- self test --------------------------------------------------------------

int Fail(const char* what) {
  std::fprintf(stderr, "self-test FAILED: %s\n", what);
  return 1;
}

int SelfTest() {
  const std::string sample =
      "{\"schema\":1,\"scenario\":\"demo\",\"metrics\":{"
      "\"ops_per_sec\":1000,\"p99_ms\":12.5,\"bytes_per_txn\":900,"
      "\"peak_lag\":40,\"events_per_sec\":5e6}}";
  auto r = ParseReport(sample);
  if (!r || r->scenario != "demo" || r->metrics.size() != 5 ||
      r->metrics.at("p99_ms") != 12.5) {
    return Fail("parse");
  }
  Options opt;
  // Identical values never regress.
  for (const auto& [name, v] : r->metrics) {
    if (CompareMetric(name, v, v, opt).regressed) return Fail("identity");
  }
  // ops/s drop beyond 10% fails; within band passes.
  if (!CompareMetric("ops_per_sec", 1000, 850, opt).regressed) {
    return Fail("ops drop undetected");
  }
  if (CompareMetric("ops_per_sec", 1000, 950, opt).regressed) {
    return Fail("ops within band flagged");
  }
  // ops/s *gain* is fine at any size.
  if (CompareMetric("ops_per_sec", 1000, 2000, opt).regressed) {
    return Fail("ops gain flagged");
  }
  // p99 rise beyond 20%+0.5ms fails; a drop is fine.
  if (!CompareMetric("p99_ms", 10, 13, opt).regressed) {
    return Fail("p99 rise undetected");
  }
  if (CompareMetric("p99_ms", 10, 5, opt).regressed) {
    return Fail("p99 drop flagged");
  }
  // bytes/txn rise beyond 10%+64 fails.
  if (!CompareMetric("bytes_per_txn", 900, 1100, opt).regressed) {
    return Fail("bytes rise undetected");
  }
  // Lag band is wide (25% + 50 abs): 40 -> 95 passes, 40 -> 120 fails.
  if (CompareMetric("peak_lag", 40, 95, opt).regressed) {
    return Fail("lag slack missing");
  }
  if (!CompareMetric("peak_lag", 40, 120, opt).regressed) {
    return Fail("lag blowup undetected");
  }
  // Frames per shipped entry has a tight band: 1.0 -> 1.1 passes, a
  // cursor rescan (1.0 -> 1.5 and up) fails.
  if (CompareMetric("ship_frames_per_entry", 1.0, 1.1, opt).regressed) {
    return Fail("frames_per_entry band too tight");
  }
  if (!CompareMetric("ship_frames_per_entry", 1.0, 1.5, opt).regressed) {
    return Fail("frames_per_entry rise undetected");
  }
  // Parses per client statement has the same tight band: 1.0 -> 1.1
  // passes, a replica re-parse (1.0 -> 2.0 and up) fails.
  const Rule* parses = FindRule("parses_per_stmt");
  if (parses == nullptr || std::strcmp(parses->pattern, "parses_per_stmt")) {
    return Fail("parses_per_stmt caught by an earlier rule");
  }
  if (CompareMetric("parses_per_stmt", 1.0, 1.1, opt).regressed) {
    return Fail("parses_per_stmt band too tight");
  }
  if (!CompareMetric("parses_per_stmt", 1.0, 2.0, opt).regressed) {
    return Fail("parses_per_stmt rise undetected");
  }
  // Wall-clock metric never fails.
  if (CompareMetric("events_per_sec", 5e6, 1.0, opt).regressed) {
    return Fail("events_per_sec not informational");
  }
  // Critical-path attribution is informational, even with _ms/_pct
  // suffixes that would otherwise hit a lower-better band.
  if (CompareMetric("path_apply_applied_apply_backlog_p99_ms", 10, 9000, opt)
          .regressed ||
      CompareMetric("path_client_commit_queue_share_pct", 5, 95, opt)
          .regressed) {
    return Fail("path_ not informational");
  }
  // Unknown metrics get the symmetric default band.
  if (!CompareMetric("custom_counter", 100, 200, opt).regressed ||
      !CompareMetric("custom_counter", 100, 10, opt).regressed ||
      CompareMetric("custom_counter", 100, 110, opt).regressed) {
    return Fail("default band");
  }
  // Suffix rules must not match mid-name.
  const Rule* rule = FindRule("ms_budget");
  if (rule != nullptr && std::strcmp(rule->pattern, "_ms") == 0) {
    return Fail("suffix match leaked");
  }
  // --tol override widens/narrows every band.
  Options strict;
  strict.tol_override = 1.0;  // 1%.
  if (!CompareMetric("ops_per_sec", 1000, 950, strict).regressed) {
    return Fail("tol override ignored");
  }
  // Missing metric in the new report is a regression.
  Report oldr = *r;
  Report newr = *r;
  newr.metrics.erase("p99_ms");
  if (CompareReports(oldr, newr, opt) == 0) return Fail("missing metric");
  std::printf("self-test OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--tol" && i + 1 < argc) {
      opt.tol_override = std::strtod(argv[++i], nullptr);
    } else if (arg == "--abs" && i + 1 < argc) {
      opt.abs_extra = std::strtod(argv[++i], nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "benchdiff: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: benchdiff [--tol PCT] [--abs VALUE] [--verbose] "
                 "OLD NEW\n       benchdiff --self-test\n"
                 "OLD/NEW: BENCH_*.json files or directories of them\n");
    return 2;
  }
  return RunDiff(paths[0], paths[1], opt);
}

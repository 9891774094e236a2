// replidb host-cost benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats the workload at one seed until --seconds of wall time
// have passed (at least three repetitions) and reports the end-to-end
// metrics: host cost as the median over repetitions, the simulated
// outcome from the first repetition after checking that every repetition
// reproduced it bit for bit. --trace 1 alternates untraced, traced and
// obs-on repetitions for the same time, replays the captured inputs
// through each layer, reports the per-layer metrics and writes the span
// file under .bench_out/. The last line of stdout is one JSON object; the
// exit code is 1 when a correctness check fails, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"
#include "reference.h"
#include "replay.h"
#include "spans.h"

namespace replidb::perfbench {
namespace {

constexpr size_t kMinRepetitions = 3;
/// Reported for a per-layer metric the workload never exercises (for
/// example the ship cursor when no replica has ship subscribers).
constexpr double kNotApplicable = -1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

constexpr char kSpanDir[] = ".bench_out";

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// num / den, or kNotApplicable when nothing was counted.
template <typename A, typename B>
double Per(A num, B den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                 : kNotApplicable;
}

double P99OrNa(const Histogram& h) {
  return h.count() > 0 ? h.Percentile(99) : kNotApplicable;
}

double ElapsedS(int64_t since_ns) {
  return static_cast<double>(NowNs() - since_ns) / 1e9;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< Sample count or provenance, human output only.
};

/// Prints every metric as a text line, then the JSON result line.
void Report(const std::vector<Metric>& metrics, bool correct,
            uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    if (m.value == kNotApplicable) {
      std::printf("  %-36s %14s %-10s %s\n", m.name.c_str(), "n/a",
                  m.unit.c_str(), m.note.c_str());
    } else {
      std::printf("  %-36s %14.6g %-10s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Checks one repetition against the gate and the first repetition.
bool Check(const RepResult& r, const std::string& first_fp,
           const char* label) {
  bool ok = true;
  if (!r.GatePassed()) {
    std::printf("FAIL %s repetition: drained=%d converged=%d distinct=%d "
                "apply_errors=%llu\n",
                label, r.drained, r.converged, r.distinct_contents,
                static_cast<unsigned long long>(r.apply_errors));
    ok = false;
  }
  if (!first_fp.empty() && r.Fingerprint() != first_fp) {
    std::printf("FAIL %s repetition: simulated outcome differs from the first "
                "repetition at the same seed\n  first: %s\n  this:  %s\n",
                label, first_fp.c_str(), r.Fingerprint().c_str());
    ok = false;
  }
  return ok;
}

std::string Count(const char* what, uint64_t n) {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  int64_t start = NowNs();
  std::vector<RepResult> reps;
  std::vector<double> ref;
  std::string fp;
  bool correct = true;
  double peak_rss_mb = 0;
  while (reps.size() < kMinRepetitions || ElapsedS(start) < args.seconds) {
    ref.push_back(ReferenceKernelSeconds());
    RepResult r = RunRepetition(spec, args.seed, RepOptions{});
    correct = Check(r, fp, "untraced") && correct;
    if (fp.empty()) {
      fp = r.Fingerprint();
      // The peak of one cluster's whole life. Later repetitions only add
      // allocator fragmentation, which grows with their number and so with
      // the machine's speed.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    reps.push_back(std::move(r));
  }
  std::vector<double> host, setup;
  uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    host.push_back(r.host_txn_per_s());
    setup.push_back(r.setup_s());
    attempted += r.attempted;
    failed += r.failed;
  }
  const RepResult& r0 = reps.front();
  // Reference seconds per wall second: below 1 while the host runs slow.
  double scale = kReferenceKernelS / Median(ref);
  std::string reps_note =
      Count("repetitions, median, reference seconds", reps.size());
  std::printf("workload %s seed %llu: %zu repetitions in %.2f s\n"
              "  wall: %.1f txn/s, set-up %.4f s; reference kernel %.2f ms "
              "(scaled to %.0f ms)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), ElapsedS(start), Median(host), Median(setup),
              Median(ref) * 1e3, kReferenceKernelS * 1e3);
  std::vector<Metric> m = {
      {"host_txn_per_s", Median(host) / scale, "txn/s", reps_note},
      {"setup_s", Median(setup) * scale, "s", reps_note},
      {"peak_rss_mb", peak_rss_mb, "MiB",
       "(getrusage after the first repetition)"},
      {"vt_commit_tps", r0.vt_commit_tps(), "txn/s",
       Count("committed", r0.committed)},
      {"vt_p50_ms", r0.latency_ms.Percentile(50), "ms",
       Count("committed", r0.latency_ms.count())},
      {"vt_p99_ms", r0.latency_ms.Percentile(99), "ms",
       Count("committed", r0.latency_ms.count())},
      {"vt_lag_p99_ms", r0.apply_lag_ms.Percentile(99), "ms",
       Count("replica applies", r0.apply_lag_ms.count())},
      {"bytes_per_txn", r0.bytes_per_txn(), "B/txn",
       Count("committed", r0.committed)},
      {"committed_pct", r0.committed_pct(), "%",
       Count("attempted", r0.attempted)},
  };
  Report(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  int64_t start = NowNs();
  SpanRecorder spans;
  Capture cap;
  std::vector<double> base_s, traced_s, base_tps, obs_tps, load_s, start_s,
      ref;
  std::string fp;
  bool correct = true;
  RepResult first_traced;
  double cert_order_p99 = kNotApplicable;
  uint64_t cert_order_chains = 0;
  uint64_t attempted = 0, failed = 0;
  static const char* const kKinds[3] = {"untraced", "traced", "obs-on"};
  for (int round = 0; round == 0 || ElapsedS(start) < args.seconds; ++round) {
    // The three kinds rotate their order each round, so none is always
    // the one that runs on a cold process.
    ref.push_back(ReferenceKernelSeconds());
    RepResult rep[3];
    for (int k = 0; k < 3; ++k) {
      int kind = (round + k) % 3;
      RepOptions opts;
      Capture round_cap;
      if (kind == 1) {
        spans.set_run_id(round + 1);
        opts.spans = &spans;
        opts.capture = round == 0 ? &cap : &round_cap;
      }
      opts.obs_on = kind == 2;
      rep[kind] = RunRepetition(spec, args.seed, opts);
      correct = Check(rep[kind], fp, kKinds[kind]) && correct;
      if (fp.empty()) fp = rep[kind].Fingerprint();
      attempted += rep[kind].attempted;
      failed += rep[kind].failed;
    }
    base_s.push_back(rep[0].measured_s);
    traced_s.push_back(rep[1].measured_s);
    base_tps.push_back(rep[0].host_txn_per_s());
    obs_tps.push_back(rep[2].host_txn_per_s());
    load_s.push_back(rep[0].load_s);
    start_s.push_back(rep[0].start_s);
    if (round == 0) {
      first_traced = rep[1];
      cert_order_p99 = rep[2].cert_order_p99_ms;
      cert_order_chains = rep[2].cert_order_chains;
    }
  }
  const RepResult& r = first_traced;

  // Layer replays over the first traced repetition's inputs.
  spans.set_run_id(0);
  SqlReplay sq = ReplaySql(cap, &spans);
  EngineReplay en = ReplayEngine(cap, &spans);
  BinlogReplay bl = ReplayBinlog(cap, &spans);
  CodecReplay co = ReplayCodec(cap, &spans);
  uint64_t per_txn = r.committed > 0 ? r.events / r.committed : 1;
  SimReplay si =
      ReplaySimulator(r.events, r.pending_peak, per_txn, args.seed, &spans);

  if (sq.errors != 0) {
    std::printf("FAIL sql replay: %llu statements did not parse\n",
                static_cast<unsigned long long>(sq.errors));
    correct = false;
  }
  if (en.errors != 0 || en.content_hash != cap.owner_content_hash) {
    std::printf("FAIL engine replay: errors=%llu hash=%llu, run hash=%llu\n",
                static_cast<unsigned long long>(en.errors),
                static_cast<unsigned long long>(en.content_hash),
                static_cast<unsigned long long>(cap.owner_content_hash));
    correct = false;
  }
  if (!bl.ok || bl.segments != cap.owner_segments) {
    std::printf("FAIL binlog replay: records ok=%d, replayed log %s the "
                "run's log\n",
                bl.ok,
                bl.segments == cap.owner_segments ? "matches" : "differs from");
    correct = false;
  }
  if (cap.shipping && (bl.shipped_versions != bl.logged_versions ||
                       bl.last_shipped != cap.owner_shipped_version)) {
    std::printf("FAIL binlog replay: shipped %zu of %zu logged entries, "
                "last %llu vs run %llu\n",
                bl.shipped_versions.size(), bl.logged_versions.size(),
                static_cast<unsigned long long>(bl.last_shipped),
                static_cast<unsigned long long>(cap.owner_shipped_version));
    correct = false;
  }
  if (!co.roundtrip_ok) {
    std::printf("FAIL codec replay: decoded batches differ from encoded\n");
    correct = false;
  }

  std::filesystem::create_directories(kSpanDir);
  std::string span_path = std::string(kSpanDir) + "/spans_" + spec.name +
                          "_seed" + std::to_string(args.seed) + ".json";
  bool wrote = spans.WriteJson(span_path);
  std::printf("workload %s seed %llu: %zu rounds in %.2f s; %zu spans %s %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              base_s.size(), ElapsedS(start), spans.spans().size(),
              wrote ? "->" : "FAILED to write", span_path.c_str());

  int64_t replayed_ns = sq.ns + en.write_ns + en.read_ns + en.backup_ns +
                        bl.append_ns + bl.scan_ns + co.encode_ns +
                        co.decode_ns + si.ns;
  double base_med = Median(base_s);
  std::string rounds = Count("rounds, median", base_s.size());
  std::string no_cursor = "(no ship cursor)";
  std::vector<Metric> m = {
      {"sim.events_per_txn", Per(r.events, r.committed), "count",
       Count("events", r.events)},
      {"sim.dispatch_ns_per_event", Per(si.ns, si.events), "ns",
       Count("replayed events", si.events)},
      {"sim.pending_peak", static_cast<double>(r.pending_peak), "count",
       "(max at slice ends)"},
      {"net.messages_per_txn", Per(r.messages_delivered, r.committed),
       "count", Count("messages", r.messages_delivered)},
      {"sql.stmts_per_txn", Per(r.statements, r.attempted), "count",
       Count("statements", r.statements)},
      {"sql.parse_ns_per_stmt", Per(sq.ns, sq.statements), "ns",
       Count("statements", sq.statements)},
      {"engine.read_ns_per_txn", Per(en.read_ns, en.reads), "ns",
       Count("reads", en.reads)},
      {"engine.write_ns_per_txn", Per(en.write_ns, en.writes), "ns",
       Count("writes", en.writes)},
      {"engine.backup_ms", static_cast<double>(en.backup_ns) / 1e6, "ms",
       "(one Backup of the final state)"},
      {"engine.shadow_log_entries", static_cast<double>(r.shadow_log_entries),
       "count", "(log owner engine binlog)"},
      {"binlog.append_ns_per_entry", Per(bl.append_ns, bl.entries), "ns",
       Count("entries", bl.entries)},
      {"binlog.ship_scan_ns_per_entry",
       cap.shipping ? Per(bl.scan_ns, bl.shipped) : kNotApplicable, "ns",
       cap.shipping ? Count("shipped", bl.shipped) : no_cursor},
      {"binlog.bytes_read_per_entry_shipped",
       cap.shipping ? Per(bl.scan_bytes_read, bl.shipped) : kNotApplicable,
       "B", cap.shipping ? Count("shipped", bl.shipped) : no_cursor},
      {"binlog.retained_bytes", static_cast<double>(r.retained_bytes), "B",
       "(all replicas, end of run)"},
      {"ship.encode_ns_per_entry", Per(co.encode_ns, co.entries), "ns",
       Count("entries", co.entries)},
      {"ship.decode_ns_per_entry", Per(co.decode_ns, co.entries), "ns",
       Count("entries", co.entries)},
      {"ship.wire_bytes_per_entry", Per(r.ship_wire_bytes, r.ship_entries),
       "B", Count("shipped entries", r.ship_entries)},
      {"mw.cert_order_p99_ms", cert_order_p99, "ms",
       Count("client chains, obs-on repetition", cert_order_chains)},
      {"cert.commit_ratio", Per(r.writes_committed, r.write_attempts),
       "ratio", Count("write attempts", r.write_attempts)},
      {"mw.process_p99_ms", P99OrNa(r.process_ms), "ms",
       Count("samples", r.process_ms.count())},
      {"replica.exec_queue_wait_p99_ms", P99OrNa(r.exec_queue_wait_ms), "ms",
       Count("samples", r.exec_queue_wait_ms.count())},
      {"replica.apply_queue_wait_p99_ms", P99OrNa(r.apply_queue_wait_ms), "ms",
       Count("samples", r.apply_queue_wait_ms.count())},
      {"replica.apply_dep_wait_p99_ms", P99OrNa(r.apply_dep_wait_ms), "ms",
       Count("samples", r.apply_dep_wait_ms.count())},
      {"replica.peak_lag_versions", r.peak_lag, "versions",
       "(max of the sampled lag_versions series)"},
      {"client.retries_per_txn", Per(r.retries, r.attempted), "count",
       Count("attempted", r.attempted)},
      {"obs.overhead_pct",
       100.0 * (Median(base_tps) - Median(obs_tps)) / Median(base_tps), "%",
       rounds},
      {"obs.timeseries_points", static_cast<double>(r.timeseries_points),
       "count", "(all series, end of run)"},
      {"setup.load_s", Median(load_s), "s", rounds},
      {"setup.start_s", Median(start_s), "s", rounds},
      {"host.wall_txn_per_s", Median(base_tps), "txn/s",
       Count("rounds, median, untraced, wall clock", base_s.size())},
      {"host.ref_kernel_ms", Median(ref) * 1e3, "ms", rounds},
      {"host.replayed_share_pct", 100.0 * Per(replayed_ns, r.measured_s * 1e9),
       "%", "(one replay pass per layer / traced measured wall)"},
      {"bench.trace_overhead_pct",
       100.0 * (Median(traced_s) - base_med) / base_med, "%", rounds},
  };
  Report(m, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace replidb::perfbench

int main(int argc, char** argv) {
  using namespace replidb::perfbench;
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\nworkloads:");
    for (const WorkloadSpec& w : Workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return args.trace == 0 ? RunEndToEnd(spec, args) : RunTraced(spec, args);
}

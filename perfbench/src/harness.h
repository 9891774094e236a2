#ifndef REPLIDB_PERFBENCH_HARNESS_H_
#define REPLIDB_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "binlog/format.h"
#include "binlog/segmented_log.h"
#include "common/histogram.h"
#include "middleware/cluster.h"
#include "ship/codec.h"
#include "spans.h"
#include "workload/workloads.h"

namespace replidb::perfbench {

/// \brief One benchmark workload: a 4-replica cluster configuration, the
/// transaction mix, and the open-loop offered rate. The seed passed on the
/// command line drives only the generated inputs (arrival gaps and
/// transaction choices); the cluster's own seeds stay fixed.
struct WorkloadSpec {
  std::string name;
  middleware::ClusterOptions cluster;
  std::function<std::unique_ptr<workload::Workload>()> make_workload;
  double rate_tps = 0;
  /// Virtual-time window of Poisson arrivals per repetition.
  sim::Duration traffic = 0;
};

/// All workloads, in a fixed order.
std::vector<WorkloadSpec> Workloads();
/// Copies the workload called `name` into `out`; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

/// One submitted transaction and its final outcome (traced runs only).
struct TxnRecord {
  middleware::TxnRequest request;
  bool committed = false;
  middleware::GlobalVersion version = 0;  ///< Commit version of a write.
};

/// One framed record read off the log owner's LogStore while the run was
/// going. `slice` is the index of the simulator slice (one ship interval)
/// in which the record first appeared, so the replay can rebuild the
/// master's ship-tick pattern.
struct LoggedRecord {
  binlog::RecordType type = binlog::RecordType::kEntry;
  std::string payload;
  uint64_t slice = 0;
};

/// \brief Inputs a traced repetition captured for the layer replays, plus
/// the run's own results that the replays must reproduce.
struct Capture {
  std::vector<std::string> setup;
  std::vector<TxnRecord> txns;
  /// Every record the log owner (the master, or replica 1 when there is
  /// none) appended, in log order.
  std::vector<LoggedRecord> log;
  /// True when the log owner had ship subscribers (master-slave): its
  /// durable log is read by the per-tick ship cursor.
  bool shipping = false;
  binlog::SegmentedLogOptions log_options;
  engine::RdbmsOptions engine_options;  ///< The log owner's engine.
  ship::CodecOptions codec;
  /// Mean entries per shipped batch in the run (ship.batch.entries).
  double mean_batch_entries = 1;

  // What the run ended with, for the replay checks.
  uint64_t owner_content_hash = 0;
  middleware::GlobalVersion owner_shipped_version = 0;
  std::vector<std::pair<uint64_t, std::string>> owner_segments;
};

/// (segment number, bytes) for every segment of a log store.
std::vector<std::pair<uint64_t, std::string>> SegmentBytes(
    const binlog::LogStore& store);

/// Per-layer switches for one repetition.
struct RepOptions {
  /// Records the benchmark's spans around its calls into the cluster.
  SpanRecorder* spans = nullptr;
  /// When set, the repetition records its inputs for the layer replays.
  Capture* capture = nullptr;
  /// Turns on the program's own Tracer and critical-path collector.
  bool obs_on = false;
};

/// \brief Result of one repetition. Everything above the host-cost block
/// comes from the simulator and must repeat bit for bit at a fixed seed.
struct RepResult {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t write_attempts = 0;  ///< Write submissions plus their retries.
  uint64_t writes_committed = 0;
  uint64_t statements = 0;
  Histogram latency_ms;
  double traffic_s = 0;  ///< Virtual seconds of arrivals.
  double peak_lag = 0;
  uint64_t bytes_delivered = 0;
  uint64_t messages_delivered = 0;
  uint64_t events = 0;  ///< Simulator events in traffic + drain.
  uint64_t pending_peak = 0;
  Histogram process_ms, exec_queue_wait_ms, apply_queue_wait_ms,
      apply_dep_wait_ms;
  /// Master commit to replica apply, per applied entry (virtual ms).
  Histogram apply_lag_ms;
  uint64_t ship_wire_bytes = 0;
  uint64_t ship_entries = 0;
  uint64_t shadow_log_entries = 0;
  uint64_t retained_bytes = 0;
  uint64_t timeseries_points = 0;

  /// Obs-on repetitions only: p99 of the certification/total-order wait
  /// per committed client transaction, from the critical-path collector
  /// (-1 when no chain waited in that state).
  double cert_order_p99_ms = -1;
  uint64_t cert_order_chains = 0;

  // Correctness gate inputs.
  bool drained = false;
  bool converged = false;
  int distinct_contents = 0;
  uint64_t apply_errors = 0;

  // Host cost (wall clock, varies run to run).
  double load_s = 0;   ///< Construction + Setup.
  double start_s = 0;  ///< Start + heartbeat settle.
  double measured_s = 0;  ///< Traffic + drain.

  double setup_s() const { return load_s + start_s; }
  double host_txn_per_s() const {
    return measured_s > 0 ? static_cast<double>(committed) / measured_s : 0;
  }
  double vt_commit_tps() const {
    return traffic_s > 0 ? static_cast<double>(committed) / traffic_s : 0;
  }
  double bytes_per_txn() const {
    return committed > 0 ? static_cast<double>(bytes_delivered) /
                               static_cast<double>(committed)
                         : 0;
  }
  double committed_pct() const {
    return attempted > 0 ? 100.0 * static_cast<double>(committed) /
                               static_cast<double>(attempted)
                         : 0;
  }
  bool GatePassed() const {
    return drained && converged && distinct_contents == 1 &&
           apply_errors == 0;
  }
  /// Every deterministic value, printed at full precision: two
  /// repetitions at one seed must produce the same string.
  std::string Fingerprint() const;
};

/// Runs one repetition: build the cluster, load, start, settle, offer the
/// workload for `spec.traffic` of virtual time, drain until every
/// transaction finished and every replica caught up.
RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed,
                        const RepOptions& options);

}  // namespace replidb::perfbench

#endif  // REPLIDB_PERFBENCH_HARNESS_H_

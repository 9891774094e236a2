#ifndef REPLIDB_MIDDLEWARE_REPLICA_NODE_H_
#define REPLIDB_MIDDLEWARE_REPLICA_NODE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "binlog/log_store.h"
#include "binlog/segmented_log.h"
#include "engine/rdbms.h"
#include "middleware/apply_scheduler.h"
#include "middleware/messages.h"
#include "net/dispatcher.h"
#include "net/failure_detector.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "ship/pipeline.h"
#include "sim/simulator.h"

namespace replidb::middleware {

/// \brief Options for a replica node.
struct ReplicaOptions {
  /// Concurrent query workers (connections the engine serves in parallel).
  int capacity = 8;
  /// Workers for applying the replication stream. 1 = strictly serial
  /// apply (the paper's lagging hot standby, §2.2); more workers overlap
  /// non-conflicting entries while preserving commit order.
  int apply_workers = 1;
  /// How the ordered stream is scheduled onto those workers (see
  /// ApplyPolicy). kConflictGraph with 1 worker degenerates to serial
  /// timing, so the default preserves the single-worker baseline.
  ApplyPolicy apply_policy = ApplyPolicy::kConflictGraph;
  /// How often committed-but-unshipped binlog entries are pushed to
  /// subscribers (the 1-safe loss window, §2.2).
  sim::Duration ship_interval = 50 * sim::kMillisecond;
  /// Apply cost model: per-writeset-op and fixed costs (µs) when applying
  /// row images (statement re-execution uses the real engine cost).
  double apply_base_us = 60;
  double apply_per_op_us = 8;
  /// Backup/restore throughput in bytes per second of simulated time.
  double backup_bytes_per_sec = 40e6;
  /// Memory model for the Tashkent+-style load-balancing experiment: how
  /// many tables fit in this replica's buffer pool (0 disables the model).
  /// Transactions whose tables are all hot run at full speed; a miss
  /// multiplies the service cost (disk-bound execution).
  int hot_table_capacity = 0;
  double cache_miss_penalty = 3.0;
  /// If true, a crash also destroys local data (disk loss): the replica
  /// must be re-cloned rather than merely resynchronized.
  bool lose_data_on_crash = false;
  /// Shipping-pipeline knobs for the master role's binlog stream (wire
  /// codec, batching, credit-based flow control).
  ship::ShipOptions ship;
  /// Group-apply amortization: entries arriving after the first of one
  /// shipped batch pay apply_base_us * this factor (they share the
  /// batch's group fsync). 1.0 = no amortization.
  double apply_group_factor = 1.0;
  /// Segmented durable binlog (src/binlog). Every replica keeps one — it
  /// backs the master's shipping cursor and the binlog-health console —
  /// but only `durable = true` makes it the recovery source: the engine
  /// then models volatile state, a crash wipes it, and Restart() rebuilds
  /// from the latest checkpoint + log tail instead of a full resync.
  /// Only a durable log's checkpoints carry the engine image; the others
  /// log version, time and table digests with an empty image, which is
  /// all that GC and the console read.
  struct BinlogConfig {
    bool durable = false;
    int64_t segment_max_bytes = 256 * 1024;
    /// Entry records between checkpoints (0 = only the setup checkpoint).
    uint64_t checkpoint_every = 512;
    /// fsync per record vs per rollover/checkpoint (wider torn-tail
    /// window after a crash when false).
    bool sync_every_append = true;
  } binlog;
};

/// \brief A database replica: one Rdbms engine attached to a simulated
/// cluster node, with a worker-pool queueing model, an ordered replication
/// stream, master-side log shipping, and backup/restore endpoints.
///
/// All state changes happen through messages (see messages.h); the
/// controller never touches the engine directly. Service times come from
/// the engine's CostModel and are charged against `capacity` workers, so
/// saturation, queueing delay, and apply lag all emerge from the model.
class ReplicaNode {
 public:
  ReplicaNode(sim::Simulator* sim, net::Network* network, net::NodeId node,
              engine::RdbmsOptions engine_options, ReplicaOptions options = {},
              net::SiteId site = 0);
  ~ReplicaNode();
  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  net::NodeId id() const { return dispatcher_->node(); }
  engine::Rdbms* engine() { return engine_.get(); }
  const engine::Rdbms* engine() const { return engine_.get(); }

  /// Highest global version incorporated into this replica's state.
  GlobalVersion applied_version() const { return applied_version_; }
  /// Used when seeding a replica out-of-band (initial load, restore).
  void set_applied_version(GlobalVersion v) { applied_version_ = v; }

  /// Nodes that receive this replica's committed entries (master role).
  void SetSubscribers(std::vector<net::NodeId> subscribers);

  /// Crash the node: network presence drops, queued work is lost. Local
  /// data survives unless options.lose_data_on_crash.
  void Crash();
  /// Restart after a crash: empty queues, data as per crash semantics.
  void Restart();
  bool crashed() const { return crashed_; }

  /// Direct (non-message) administrative access for test/bench setup —
  /// e.g. loading the initial schema identically on every replica.
  engine::ExecResult AdminExec(const std::string& sql);

  /// Highest version shipped to subscribers so far.
  GlobalVersion shipped_version() const { return last_shipped_; }
  /// Entries the ship cursor has handed to the pipeline so far (once per
  /// entry, however many subscribers it goes to).
  uint64_t entries_shipped() const { return entries_shipped_; }

  /// Versions queued in the ordered stream but not yet applied (lag in
  /// entries; the paper's master/slave lag, §2.2).
  uint64_t apply_backlog() const { return ordered_buffer_.size(); }

  const ReplicaOptions& options() const { return options_; }

  /// The apply scheduler's timing/dependency state (tests, status).
  const ApplyScheduler& apply_scheduler() const { return apply_sched_; }

  /// Number of currently busy workers (load probe for load balancers).
  int64_t QueueDepth() const;

  /// Snapshots the engine's post-setup state as the replication baseline:
  /// call once on every replica after loading the identical initial
  /// schema/data, before traffic starts.
  void MarkSetupComplete();

  /// Registers the controller that receives progress beacons.
  void SetController(net::NodeId controller);

  /// Apply-path errors observed (divergence indicator).
  uint64_t apply_errors() const { return apply_errors_; }

  /// Software version of this replica's stack (§4.4.3 rolling upgrades).
  int software_version() const { return software_version_; }
  void set_software_version(int v) { software_version_ = v; }

  /// True while the master role's ship window to any subscriber is
  /// exhausted (credit flow control) — the admission backpressure signal.
  bool ShipBackpressured() const { return ship_pipeline_->AnyStalled(); }

  /// Forgets queued entries and restores a full ship window for one peer
  /// (it restarted or is being resynced, so its credit state is void).
  void ResetShipPeer(net::NodeId peer) { ship_pipeline_->ResetPeer(peer); }

  const ship::ShipPipeline& ship_pipeline() const { return *ship_pipeline_; }

  /// Durable-log introspection (SHOW REPLICA STATUS, fault injection,
  /// tests). The store is this node's "disk"; tampering with it models
  /// disk-level corruption.
  binlog::LogStore* log_store() { return log_store_.get(); }
  binlog::SegmentedBinlog* durable_log() { return durable_log_.get(); }
  binlog::BinlogStats DurableLogStats() const { return durable_log_->Stats(); }
  /// Apply watermark persisted in the store's meta area — where crash
  /// recovery resumes its tail replay after the checkpoint image.
  GlobalVersion persisted_watermark() const;

  /// Crash-restart recovery outcomes (bench_c14 / status).
  uint64_t recoveries() const { return recoveries_; }
  sim::Duration last_recovery_duration() const {
    return last_recovery_duration_;
  }
  uint64_t last_recovery_replayed() const { return last_recovery_replayed_; }

 private:
  struct HeldTxn {
    engine::SessionId session = 0;
    engine::Writeset writeset;
    std::vector<std::string> statements;
    net::NodeId from = -1;
  };

  /// One version slot of the ordered replication stream: a shipped or
  /// certified entry, an ordered statement-mode transaction, or (`skip`)
  /// the origin replica's own certified commit.
  struct OrderedSlot {
    ReplicationEntry entry;
    /// Engine work happens elsewhere (the held session commits it).
    bool skip = false;
    /// The sender asked for a receipt ack (2-safe shipping).
    bool ack_requested = false;
    /// Entry arrived after the first of a shipped batch: its durable apply
    /// shares the batch's group fsync (ReplicaOptions::apply_group_factor).
    bool group_follower = false;
  };

  void HandleExec(const net::Message& m);
  void StartUnorderedExec(const ExecTxnMsg& msg, net::NodeId from);
  void DrainWaitingReads();
  /// Applies the hot-table cache model; returns the adjusted cost.
  int64_t TouchCache(const std::vector<std::string>& tables, int64_t cost);
  void HandleFinish(const net::Message& m);
  void HandleShipBatch(const net::Message& m);
  /// Queues one ingested entry into the ordered stream. Returns false for
  /// duplicates.
  bool EnqueueOrdered(OrderedSlot slot, net::NodeId from);
  /// Grants matured byte credits (entries applied up to applied_version_)
  /// back to their senders.
  void ReleaseCredits();
  void HandleBackup(const net::Message& m);
  void HandleRestore(const net::Message& m);

  /// Runs statements in one engine transaction; fills reply fields.
  /// If hold_commit, leaves the transaction open in held_.
  void RunTransaction(const ExecTxnMsg& msg, net::NodeId from,
                      ExecTxnReply* reply);

  /// Applies contiguous buffered versions to the engine and schedules
  /// their timed completions.
  void DrainOrderedBuffer();

  /// Outcome of ApplyStatements: `ok` is false only when a statement
  /// failed (a refused connection applies nothing); `cost_us` sums the
  /// statements and the COMMIT, not the BEGIN.
  struct StatementApply {
    bool ok = true;
    int64_t cost_us = 0;
  };
  /// Applies a statement-carrying replication entry as one transaction on
  /// a fresh session: BEGIN, the statements, then COMMIT, or ROLLBACK
  /// after the first failure.
  StatementApply ApplyStatements(const std::vector<std::string>& statements);

  /// Charges `cost` against the unordered worker pool; returns completion
  /// time. `start_out`, when given, receives the service start time (the
  /// queue-wait boundary for the per-stage breakdown).
  sim::TimePoint ChargeWorker(int64_t cost_us,
                              sim::TimePoint* start_out = nullptr);

  /// Takes the engine's commit outbox (a shipping master appends it to the
  /// durable log) and ships durable entries after last_shipped_.
  void ShipCommitted(int sync_acks_for_version = 0,
                     GlobalVersion sync_version = 0);

  /// Appends one replication-stream entry to the durable log (write-ahead
  /// of its engine apply). Duplicate versions are ignored.
  void DurableAppend(const ReplicationEntry& entry);
  /// Takes a checkpoint when checkpoint_every entries accumulated.
  void MaybeCheckpoint();
  /// Captures engine digests + image into a checkpoint record and GCs
  /// sealed segments behind the slowest consumer (previous checkpoint, and
  /// the ship watermark for masters).
  void TakeCheckpoint();
  /// Durable-mode restart path: CRC-scan the log, restore the latest
  /// checkpoint image, verify its digests, replay the tail, and charge
  /// the modeled recovery time against this node's workers.
  void RecoverFromDurableLog(sim::TimePoint now);

  /// Fires pending audit barriers the engine has reached. Called at every
  /// point engine_applied_ advances, so digests are captured synchronously
  /// at the exact stream position the barrier names (the engine may hold
  /// later versions by the time the timed completion runs).
  void CheckAuditBarriers();
  void SendAuditReport(uint64_t audit_epoch, net::NodeId to);

  void SendProgress();

  int64_t ApplyCost(const ReplicationEntry& entry,
                    bool group_follower = false) const;

  sim::Simulator* sim_;
  net::Network* network_;
  std::unique_ptr<net::Dispatcher> dispatcher_;
  std::unique_ptr<engine::Rdbms> engine_;
  ReplicaOptions options_;
  engine::RdbmsOptions engine_options_;

  std::unique_ptr<net::HeartbeatResponder> hb_responder_;
  std::unique_ptr<net::TcpKeepAliveResponder> ka_responder_;

  bool crashed_ = false;
  uint64_t epoch_ = 0;  ///< Bumped on crash; stale timers no-op.

  // Unordered worker pool (reads + master writes).
  std::vector<sim::TimePoint> workers_free_;

  // Ordered replication stream. `engine_applied_` advances synchronously
  // as entries reach the engine; `applied_version_` advances at the timed
  // completion (what the outside world observes).
  GlobalVersion applied_version_ = 0;
  GlobalVersion engine_applied_ = 0;
  std::map<GlobalVersion, OrderedSlot> ordered_buffer_;
  /// When each buffered version entered this node (queue-wait stage start).
  std::map<GlobalVersion, sim::TimePoint> ordered_arrival_;
  std::map<GlobalVersion, std::pair<ExecTxnMsg, net::NodeId>> ordered_exec_;
  std::map<GlobalVersion, std::pair<FinishTxnMsg, net::NodeId>> ordered_finish_;
  /// Timing/dependency model for the ordered stream: worker pool,
  /// conflict-key graph, barrier horizon, in-order visibility watermark.
  ApplyScheduler apply_sched_;
  uint64_t apply_errors_ = 0;

  // Durable segmented binlog: the node's on-"disk" replication log and
  // the only one it retains.
  std::unique_ptr<binlog::LogStore> log_store_;
  std::unique_ptr<binlog::SegmentedBinlog> durable_log_;
  uint64_t entries_since_checkpoint_ = 0;
  GlobalVersion prev_checkpoint_version_ = 0;
  uint64_t recoveries_ = 0;
  sim::Duration last_recovery_duration_ = 0;
  uint64_t last_recovery_replayed_ = 0;

  // Master shipping.
  std::vector<net::NodeId> subscribers_;
  GlobalVersion last_shipped_ = 0;
  uint64_t entries_shipped_ = 0;
  std::unique_ptr<sim::PeriodicTask> ship_task_;
  // 2-safe bookkeeping: version -> (acks outstanding, reply closure).
  struct PendingSync {
    int acks_needed = 0;
    std::function<void()> on_acked;
  };
  std::map<GlobalVersion, PendingSync> pending_sync_;
  /// Outgoing ship pipeline (master role): batches + flow control.
  std::unique_ptr<ship::ShipPipeline> ship_pipeline_;
  /// Credits owed per ingested-but-not-yet-applied entry: version ->
  /// (sender, bytes). Granted back when applied_version_ passes them.
  std::multimap<GlobalVersion, std::pair<net::NodeId, int64_t>>
      pending_credits_;

  // Held (uncommitted) transactions for certification mode. Ordered:
  // Crash() and conflict kills iterate it, and the resulting ROLLBACK /
  // Disconnect order feeds the engine's commit sequence.
  std::map<uint64_t, HeldTxn> held_;

  // Freshness-gated reads waiting for applied_version_ >= min_version.
  // `since` is when the read started waiting — the apply-backlog wait it
  // contributes to the client's critical path.
  struct WaitingRead {
    ExecTxnMsg msg;
    net::NodeId from = -1;
    sim::TimePoint since = 0;
  };
  std::vector<WaitingRead> waiting_reads_;

  // Audit barriers not yet reached: barrier version -> (epoch, reply-to).
  std::multimap<GlobalVersion, std::pair<uint64_t, net::NodeId>>
      pending_audits_;

  // Hot-table LRU (memory-aware LB experiment). Front = most recent.
  std::vector<std::string> hot_tables_;

  net::NodeId controller_ = -1;  ///< Set by the controller at registration.
  int software_version_ = 1;

  // Observability: per-node gauges + the trace track name, resolved once.
  obs::Gauge* backlog_gauge_ = nullptr;  ///< replica.<id>.apply_backlog.
  obs::Gauge* lag_ms_gauge_ = nullptr;   ///< replica.<id>.lag_ms.
  obs::Gauge* sched_keys_gauge_ = nullptr;  ///< replica.<id>.sched_keys.
  std::string track_;                    ///< Trace track, "replica.<id>".
};

}  // namespace replidb::middleware

#endif  // REPLIDB_MIDDLEWARE_REPLICA_NODE_H_

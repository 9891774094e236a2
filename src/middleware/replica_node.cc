#include "middleware/replica_node.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace replidb::middleware {

namespace {

/// Replica-side registry handles, resolved once. Histograms aggregate
/// across replicas (per-node state lives in the `replica.<id>.*` gauges).
struct ReplicaMetrics {
  obs::Counter* apply_entries;
  obs::Counter* apply_errors;
  obs::HistogramMetric* apply_queue_wait_ms;
  obs::HistogramMetric* apply_dep_wait_ms;
  obs::HistogramMetric* apply_service_ms;
  obs::HistogramMetric* apply_commit_wait_ms;
  obs::HistogramMetric* apply_lag_ms;
  obs::HistogramMetric* exec_queue_wait_ms;
  obs::HistogramMetric* exec_service_ms;

  static ReplicaMetrics& Get() {
    static ReplicaMetrics m;
    return m;
  }

 private:
  ReplicaMetrics() {
    auto& r = obs::MetricsRegistry::Global();
    apply_entries = r.GetCounter("replica.apply.entries");
    apply_errors = r.GetCounter("replica.apply.errors");
    apply_queue_wait_ms = r.GetHistogram("replica.apply.queue_wait_ms");
    apply_dep_wait_ms = r.GetHistogram("replica.apply.dep_wait_ms");
    apply_service_ms = r.GetHistogram("replica.apply.service_ms");
    apply_commit_wait_ms = r.GetHistogram("replica.apply.commit_wait_ms");
    apply_lag_ms = r.GetHistogram("replica.apply.lag_ms");
    exec_queue_wait_ms = r.GetHistogram("replica.exec.queue_wait_ms");
    exec_service_ms = r.GetHistogram("replica.exec.service_ms");
  }
};

}  // namespace

const char* ReplicationModeName(ReplicationMode mode) {
  switch (mode) {
    case ReplicationMode::kMasterSlaveAsync:
      return "master-slave-async(1-safe)";
    case ReplicationMode::kMasterSlaveSync:
      return "master-slave-sync(2-safe)";
    case ReplicationMode::kMultiMasterStatement:
      return "multi-master-statement";
    case ReplicationMode::kMultiMasterCertification:
      return "multi-master-certification";
  }
  return "?";
}

const char* ConsistencyLevelName(ConsistencyLevel level) {
  switch (level) {
    case ConsistencyLevel::kEventual:
      return "eventual";
    case ConsistencyLevel::kSessionPCSI:
      return "session-pcsi";
    case ConsistencyLevel::kStrongSI:
      return "strong-si";
    case ConsistencyLevel::kOneCopySerializability:
      return "1sr";
  }
  return "?";
}

ReplicaNode::ReplicaNode(sim::Simulator* sim, net::Network* network,
                         net::NodeId node, engine::RdbmsOptions engine_options,
                         ReplicaOptions options, net::SiteId site)
    : sim_(sim),
      network_(network),
      options_(options),
      engine_options_(engine_options),
      apply_sched_(ApplyScheduler::Options{options.apply_policy,
                                           options.apply_workers}) {
  dispatcher_ = std::make_unique<net::Dispatcher>(network, node, site);
  engine_ = std::make_unique<engine::Rdbms>(engine_options_);
  log_store_ = std::make_unique<binlog::MemLogStore>();
  binlog::SegmentedLogOptions log_opts;
  log_opts.segment_max_bytes = options_.binlog.segment_max_bytes;
  log_opts.sync_every_append = options_.binlog.sync_every_append;
  durable_log_ =
      std::make_unique<binlog::SegmentedBinlog>(log_store_.get(), log_opts);
  hb_responder_ = std::make_unique<net::HeartbeatResponder>(sim_, dispatcher_.get());
  ka_responder_ = std::make_unique<net::TcpKeepAliveResponder>(dispatcher_.get());

  workers_free_.assign(static_cast<size_t>(options_.capacity), 0);

  track_ = "replica." + std::to_string(node);
  auto& registry = obs::MetricsRegistry::Global();
  backlog_gauge_ = registry.GetGauge("replica." + std::to_string(node) +
                                     ".apply_backlog");
  lag_ms_gauge_ =
      registry.GetGauge("replica." + std::to_string(node) + ".lag_ms");
  sched_keys_gauge_ =
      registry.GetGauge("replica." + std::to_string(node) + ".sched_keys");

  dispatcher_->On(kMsgExec, [this](const net::Message& m) { HandleExec(m); });
  dispatcher_->On(kMsgFinish, [this](const net::Message& m) { HandleFinish(m); });
  dispatcher_->On(kMsgShipAck, [this](const net::Message& m) {
    auto body = std::any_cast<ShipAckMsg>(m.body);
    auto it = pending_sync_.find(body.version);
    if (it == pending_sync_.end()) return;
    if (--it->second.acks_needed <= 0) {
      auto on_acked = std::move(it->second.on_acked);
      pending_sync_.erase(it);
      if (on_acked) on_acked();
    }
  });
  dispatcher_->On(kMsgBackup, [this](const net::Message& m) { HandleBackup(m); });
  dispatcher_->On(kMsgRestore, [this](const net::Message& m) { HandleRestore(m); });
  dispatcher_->On(kMsgAuditBarrier, [this](const net::Message& m) {
    if (crashed_) return;
    auto msg = std::any_cast<AuditBarrierMsg>(m.body);
    if (engine_applied_ >= msg.version) {
      SendAuditReport(msg.epoch, m.from);
    } else {
      pending_audits_.emplace(msg.version,
                              std::make_pair(msg.epoch, m.from));
    }
  });

  ship_pipeline_ = std::make_unique<ship::ShipPipeline>(sim_, dispatcher_.get(),
                                                        options_.ship);
  dispatcher_->On(ship::kMsgShipBatch,
                  [this](const net::Message& m) { HandleShipBatch(m); });
  dispatcher_->On(ship::kMsgShipCredit, [this](const net::Message& m) {
    if (crashed_) return;
    auto body = std::any_cast<ship::ShipCreditMsg>(m.body);
    ship_pipeline_->OnCredit(m.from, body.bytes);
  });

  ship_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.ship_interval, [this] {
        if (!crashed_) ShipCommitted();
      });
  ship_task_->Start();
}

ReplicaNode::~ReplicaNode() { ship_task_->Stop(); }

void ReplicaNode::SetSubscribers(std::vector<net::NodeId> subscribers) {
  bool was_shipping = !subscribers_.empty();
  subscribers_ = std::move(subscribers);
  ship_pipeline_->SetPeers(subscribers_);
  if (!was_shipping && !subscribers_.empty()) {
    // Promotion: this node's durable log already holds everything it
    // applied as a slave — the cluster has those entries. Ship only what
    // commits from here on.
    last_shipped_ = std::max(last_shipped_, durable_log_->head_version());
  }
}

engine::ExecResult ReplicaNode::AdminExec(const std::string& sql) {
  Result<engine::SessionId> s = engine_->Connect();
  REPLIDB_CHECK(s.ok(), "admin connect failed");
  engine::ExecResult r = engine_->Execute(s.value(), sql);
  engine_->Disconnect(s.value());
  return r;
}

int64_t ReplicaNode::QueueDepth() const {
  int64_t busy = 0;
  for (sim::TimePoint t : workers_free_) {
    if (t > sim_->Now()) ++busy;
  }
  return busy;
}

GlobalVersion ReplicaNode::persisted_watermark() const {
  return durable_log_->PersistedWatermark();
}

void ReplicaNode::Crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  network_->CrashNode(id());
  // In-flight and queued work is gone; held transactions die with their
  // sessions; sync-commit waits never resolve (controller times out).
  for (auto& [req, held] : held_) {
    (void)req;
    if (engine_->HasSession(held.session)) engine_->Disconnect(held.session);
  }
  held_.clear();
  pending_sync_.clear();
  // Queued ship batches and unmatured credits die with the process; the
  // senders restore full windows when this node is resubscribed/resynced.
  ship_pipeline_->Clear();
  pending_credits_.clear();
  ordered_buffer_.clear();
  ordered_arrival_.clear();
  ordered_exec_.clear();
  ordered_finish_.clear();
  waiting_reads_.clear();
  pending_audits_.clear();
  backlog_gauge_->Set(0);
  // The durable position after a crash is the larger of:
  //  - engine_applied_: the replication-stream slot reached (slots consumed
  //    by failed/aborted items advance it without an engine commit), and
  //  - the engine's commit_seq: a master's own commits never flow through
  //    the ordered stream but share the same numbering.
  // Using either alone makes the controller replay entries the replica
  // already incorporated — double-applying non-idempotent statements.
  engine_applied_ = std::max(engine_applied_, engine_->last_commit_seq());
  applied_version_ = engine_applied_;
  if (options_.lose_data_on_crash) {
    // Disk loss: engine and durable log both gone. Recovery means a full
    // resync from a peer (backup/restore + replay), as before binlogs.
    engine_ = std::make_unique<engine::Rdbms>(engine_options_);
    applied_version_ = 0;
    engine_applied_ = 0;
    last_shipped_ = 0;
    log_store_ = std::make_unique<binlog::MemLogStore>();
    binlog::SegmentedLogOptions log_opts;
    log_opts.segment_max_bytes = options_.binlog.segment_max_bytes;
    log_opts.sync_every_append = options_.binlog.sync_every_append;
    durable_log_ =
        std::make_unique<binlog::SegmentedBinlog>(log_store_.get(), log_opts);
    entries_since_checkpoint_ = 0;
    prev_checkpoint_version_ = 0;
  } else if (options_.binlog.durable) {
    // Process death with the disk intact: the engine models volatile
    // state (buffer pool, uncheckpointed heap) and is wiped; unsynced
    // log bytes are torn away. Restart() rebuilds from checkpoint+tail.
    log_store_->DropUnsynced();
    engine_ = std::make_unique<engine::Rdbms>(engine_options_);
    applied_version_ = 0;
    engine_applied_ = 0;
  }
}

void ReplicaNode::Restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  network_->RestartNode(id());
  sim::TimePoint now = sim_->Now();
  std::fill(workers_free_.begin(), workers_free_.end(), now);
  // A restarted replica starts from a clean scheduler: no conflict keys,
  // no barrier horizon, watermark at now.
  apply_sched_.Reset(now);
  sched_keys_gauge_->Set(0);
  if (options_.binlog.durable && !options_.lose_data_on_crash) {
    RecoverFromDurableLog(now);
  }
}

// ---------------------------------------------------------------------------
// Exec path

void ReplicaNode::HandleExec(const net::Message& m) {
  if (crashed_) return;
  const auto& msg = std::any_cast<const ExecTxnMsg&>(m.body);
  if (msg.order > 0) {
    // Ordered write (statement-mode): enters the replication stream.
    // engine_applied_ can run ahead of applied_version_ (timed completion
    // pending); a duplicate in that window must not re-enter the buffer —
    // it would sit below the drain cursor forever.
    if (msg.order <= applied_version_ || msg.order <= engine_applied_ ||
        ordered_buffer_.count(msg.order)) {
      return;  // Duplicate.
    }
    OrderedSlot slot;
    slot.entry.version = msg.order;
    slot.entry.statements = msg.statements;
    slot.entry.use_statements = true;
    ordered_buffer_[msg.order] = std::move(slot);
    ordered_arrival_[msg.order] = sim_->Now();
    ordered_exec_[msg.order] = std::make_pair(msg, m.from);
    DrainOrderedBuffer();
    return;
  }

  if (msg.min_version > applied_version_) {
    // Freshness-gated read: wait until the replication stream catches up
    // to the client's required version (session PCSI / strong SI).
    waiting_reads_.push_back({msg, m.from, sim_->Now()});
    return;
  }
  StartUnorderedExec(msg, m.from);
}

void ReplicaNode::StartUnorderedExec(const ExecTxnMsg& msg, net::NodeId from) {
  ExecTxnReply reply;
  reply.req_id = msg.req_id;
  sim::TimePoint arrival = sim_->Now();
  RunTransaction(msg, from, &reply);
  // A master commit advances engine_applied_ without the ordered stream.
  if (!pending_audits_.empty()) CheckAuditBarriers();
  int64_t cost = TouchCache(msg.tables, reply.cost_us);
  sim::TimePoint start = arrival;
  sim::TimePoint done = ChargeWorker(cost, &start);
  ReplicaMetrics::Get().exec_queue_wait_ms->Observe(
      sim::ToMillis(start - arrival));
  ReplicaMetrics::Get().exec_service_ms->Observe(sim::ToMillis(cost));
  if (obs::TracingEnabled()) {
    obs::Tracer::Global().Span(track_,
                               msg.read_only ? "exec.read" : "exec.write",
                               arrival, done, msg.trace_id);
  }
  uint64_t trace_id = msg.trace_id;
  if (obs::CriticalPathEnabled() && trace_id != 0) {
    auto& cp = obs::CriticalPathCollector::Global();
    if (start > arrival) {
      cp.RecordWait(obs::ChainKind::kClient, trace_id, 0,
                    obs::WaitState::kQueue, arrival, start);
    }
    if (done > start) {
      cp.RecordWait(obs::ChainKind::kClient, trace_id, 0,
                    obs::WaitState::kService, start, done);
    }
  }
  uint64_t epoch = epoch_;
  bool success_write =
      reply.status.ok() && !msg.read_only && reply.committed_version > 0;
  int sync_count = msg.sync_ack_count;

  // The reply (rows and writeset included) moves into the completion
  // event, and from there into the 2-safe wait or the send: one copy.
  auto send_reply = [this, from, trace_id](ExecTxnReply r) {
    int64_t bytes = r.writeset.SizeBytes() + 256;
    dispatcher_->Send(from, kMsgExecReply, std::move(r), bytes, trace_id);
  };

  sim_->ScheduleAt(done, [this, epoch, send_reply, success_write, sync_count,
                          reply = std::move(reply), trace_id,
                          done]() mutable {
    if (epoch != epoch_ || crashed_) return;
    GlobalVersion committed = reply.committed_version;
    if (success_write && committed > applied_version_) {
      applied_version_ = committed;
      SendProgress();
      DrainWaitingReads();
    }
    if (success_write && sync_count > 0 && !subscribers_.empty()) {
      // 2-safe: ship now and withhold the reply until enough slaves acked.
      PendingSync ps;
      ps.acks_needed = std::min<int>(sync_count,
                                     static_cast<int>(subscribers_.size()));
      ps.on_acked = [this, send_reply, reply = std::move(reply), trace_id,
                     done]() mutable {
        if (obs::CriticalPathEnabled() && trace_id != 0 &&
            sim_->Now() > done) {
          // The commit waited for slave receipt acks: a network round
          // trip on the client's critical path.
          obs::CriticalPathCollector::Global().RecordWait(
              obs::ChainKind::kClient, trace_id, 0,
              obs::WaitState::kNetTransit, done, sim_->Now());
        }
        send_reply(std::move(reply));
      };
      pending_sync_[committed] = std::move(ps);
      ShipCommitted(/*sync_acks_for_version=*/1, committed);
      return;
    }
    send_reply(std::move(reply));
  });
}

void ReplicaNode::RunTransaction(const ExecTxnMsg& msg, net::NodeId from,
                                 ExecTxnReply* reply) {
  Result<engine::SessionId> sid = engine_->Connect();
  if (!sid.ok()) {
    reply->status = sid.status();
    return;
  }
  engine::SessionId session = sid.value();
  int64_t cost = 0;
  size_t binlog_before = engine_->binlog().size();

  engine::ExecResult begin = engine_->Begin(session);
  cost += begin.cost_us;
  Status status = begin.status;
  std::vector<sql::Row> last_rows;
  if (status.ok()) {
    for (size_t i = 0; i < msg.statements.size(); ++i) {
      // Run the controller's parse; parse the text only where it has none
      // (statement mode, or a text that failed to parse: the engine
      // reports that parse error exactly as before).
      const sql::Statement* parsed =
          i < msg.parsed.size() ? msg.parsed[i].get() : nullptr;
      engine::ExecResult r =
          parsed != nullptr ? engine_->ExecuteStmt(session, *parsed)
                            : engine_->Execute(session, msg.statements[i]);
      cost += r.cost_us;
      if (!r.ok()) {
        status = r.status;
        break;
      }
      if (!r.rows.empty() && msg.collect_rows) last_rows = std::move(r.rows);
    }
  }

  reply->replica_applied_version = applied_version_;
  reply->rows = std::move(last_rows);

  if (!status.ok()) {
    engine_->Rollback(session);
    engine_->Disconnect(session);
    reply->status = status;
    reply->cost_us = cost;
    return;
  }

  if (msg.hold_commit) {
    // Certification mode: expose the writeset, keep the txn open.
    const engine::Writeset* ws = engine_->CurrentWriteset(session);
    HeldTxn held;
    held.session = session;
    if (ws != nullptr) held.writeset = *ws;
    held.from = from;
    reply->writeset = held.writeset;
    reply->cost_us = cost;
    held_[msg.req_id] = std::move(held);
    return;
  }

  const engine::Writeset* ws = engine_->CurrentWriteset(session);
  if (ws != nullptr) reply->writeset = *ws;
  engine::ExecResult commit = engine_->Commit(session);
  cost += commit.cost_us;
  engine_->Disconnect(session);
  reply->status = commit.status;
  reply->cost_us = cost;
  if (commit.status.ok() && engine_->binlog().size() > binlog_before) {
    reply->committed_version = engine_->last_commit_seq();
    // A master's own commits share the global numbering: keep the ordered
    // stream position in sync so a later demotion (e.g. a controller
    // failover electing a different master) leaves no phantom gap.
    engine_applied_ = std::max(engine_applied_, reply->committed_version);
    for (size_t i = binlog_before; i < engine_->binlog().size(); ++i) {
      for (const std::string& s : engine_->binlog()[i].statements) {
        reply->statements.push_back(s);
      }
    }
  }
}

void ReplicaNode::HandleFinish(const net::Message& m) {
  if (crashed_) return;
  auto msg = std::any_cast<FinishTxnMsg>(m.body);
  auto it = held_.find(msg.req_id);
  if (it == held_.end()) {
    if (msg.commit) {
      // The held transaction died (killed by a conflicting apply or lost
      // in a crash), but the transaction is certified: it must commit
      // everywhere. Consume the version slot by applying the row images.
      OrderedSlot fallback;
      fallback.entry = msg.entry;
      if (msg.version > engine_applied_ &&
          !ordered_buffer_.count(msg.version)) {
        ordered_buffer_[msg.version] = std::move(fallback);
        ordered_arrival_[msg.version] = sim_->Now();
        DrainOrderedBuffer();
      }
      FinishTxnReply reply;
      reply.req_id = msg.req_id;
      reply.version = msg.version;
      dispatcher_->Send(m.from, kMsgFinishReply, reply, kControlWireBytes);
      return;
    }
    FinishTxnReply reply;
    reply.req_id = msg.req_id;
    reply.status =
        Status::Aborted("held transaction was killed (apply conflict or crash)");
    dispatcher_->Send(m.from, kMsgFinishReply, reply, kControlWireBytes);
    return;
  }
  if (!msg.commit) {
    engine_->Rollback(it->second.session);
    engine_->Disconnect(it->second.session);
    held_.erase(it);
    FinishTxnReply reply;
    reply.req_id = msg.req_id;
    dispatcher_->Send(m.from, kMsgFinishReply, reply, kControlWireBytes);
    return;
  }
  // Commit consumes the transaction's slot in the global order.
  OrderedSlot slot;
  slot.entry.version = msg.version;
  slot.skip = true;  // Engine work happens via the held session.
  ordered_buffer_[msg.version] = std::move(slot);
  ordered_arrival_[msg.version] = sim_->Now();
  ordered_finish_[msg.version] = std::make_pair(msg, m.from);
  DrainOrderedBuffer();
}

// ---------------------------------------------------------------------------
// Ordered replication stream

bool ReplicaNode::EnqueueOrdered(OrderedSlot slot, net::NodeId from) {
  GlobalVersion v = slot.entry.version;
  if (v <= applied_version_ || v <= engine_applied_ ||
      ordered_buffer_.count(v)) {
    // Duplicate (e.g. resync replay overlapping the master's own ship).
    if (slot.ack_requested) {
      dispatcher_->Send(from, kMsgShipAck, ShipAckMsg{v}, kAckWireBytes);
    }
    return false;
  }
  if (slot.ack_requested) {
    // Receipt ack (2-safe is about receipt, not application).
    dispatcher_->Send(from, kMsgShipAck, ShipAckMsg{v}, kAckWireBytes);
    slot.ack_requested = false;
  }
  ordered_buffer_[v] = std::move(slot);
  ordered_arrival_[v] = sim_->Now();
  return true;
}

void ReplicaNode::HandleShipBatch(const net::Message& m) {
  if (crashed_) return;
  Result<std::vector<ship::IngestedEntry>> ingested = ship::IngestBatch(m);
  if (!ingested.ok()) return;  // Corrupt batch: counted, sender re-ships.
  // The batch envelope carries its send time: every entry inside spent
  // [sent_us, now] on the wire — per-entry net_transit on the apply path.
  int64_t batch_sent_us = 0;
  if (const auto* batch = std::any_cast<ship::ShipBatchMsg>(&m.body)) {
    batch_sent_us = batch->sent_us;
  }
  for (ship::IngestedEntry& ie : ingested.value()) {
    OrderedSlot slot;
    slot.entry = std::move(ie.entry);
    slot.ack_requested = ie.ack_requested;
    slot.group_follower = ie.group_follower;
    GlobalVersion v = slot.entry.version;
    int64_t origin_us = slot.entry.origin_commit_us;
    if (obs::CriticalPathEnabled() && origin_us > 0) {
      auto& cp = obs::CriticalPathCollector::Global();
      // Idempotent: normally opened sender-side at enqueue time; resync
      // paths that bypass the sender hook start the window here.
      cp.OpenChain(obs::ChainKind::kApply, v, static_cast<uint64_t>(id()),
                   origin_us);
      if (batch_sent_us > 0 && sim_->Now() > batch_sent_us) {
        cp.RecordWait(obs::ChainKind::kApply, v, static_cast<uint64_t>(id()),
                      obs::WaitState::kNetTransit, batch_sent_us, sim_->Now());
      }
    }
    if (EnqueueOrdered(std::move(slot), m.from)) {
      // Credit matures when this entry is durably applied.
      pending_credits_.emplace(v, std::make_pair(m.from, ie.credit_bytes));
    } else {
      // Duplicate: the bytes are already accounted for — refund now so
      // the sender's window is not leaked away.
      dispatcher_->Send(m.from, ship::kMsgShipCredit,
                        ship::ShipCreditMsg{ie.credit_bytes},
                        ship::kCreditMsgBytes);
    }
  }
  DrainOrderedBuffer();
}

void ReplicaNode::ReleaseCredits() {
  if (pending_credits_.empty()) return;
  std::map<net::NodeId, int64_t> grants;
  while (!pending_credits_.empty() &&
         pending_credits_.begin()->first <= applied_version_) {
    auto it = pending_credits_.begin();
    grants[it->second.first] += it->second.second;
    pending_credits_.erase(it);
  }
  for (const auto& [to, bytes] : grants) {
    dispatcher_->Send(to, ship::kMsgShipCredit, ship::ShipCreditMsg{bytes},
                      ship::kCreditMsgBytes);
  }
}

ReplicaNode::StatementApply ReplicaNode::ApplyStatements(
    const std::vector<std::string>& statements) {
  StatementApply out;
  Result<engine::SessionId> sid = engine_->Connect();
  if (!sid.ok()) return out;
  engine::SessionId session = sid.value();
  engine_->Begin(session);
  for (const std::string& stmt : statements) {
    engine::ExecResult r = engine_->Execute(session, stmt);
    out.cost_us += r.cost_us;
    if (!r.ok()) {
      out.ok = false;
      break;
    }
  }
  if (out.ok) {
    out.cost_us += engine_->Commit(session).cost_us;
  } else {
    // Mirror live execution: a failing transaction rolls back in full
    // everywhere, so deterministic aborts stay convergent.
    engine_->Rollback(session);
  }
  engine_->Disconnect(session);
  return out;
}

void ReplicaNode::DrainOrderedBuffer() {
  while (true) {
    auto it = ordered_buffer_.find(engine_applied_ + 1);
    if (it == ordered_buffer_.end()) break;
    GlobalVersion v = it->first;
    OrderedSlot item = std::move(it->second);
    ordered_buffer_.erase(it);
    engine_applied_ = v;

    int64_t cost = 0;
    std::vector<std::string> conflict_keys;
    ExecTxnReply exec_reply;
    FinishTxnReply finish_reply;
    net::NodeId reply_to = -1;
    bool is_exec = false, is_finish = false;
    uint64_t client_trace = 0;  ///< Client chain this slot resolves, if any.

    auto exec_it = ordered_exec_.find(v);
    auto fin_it = ordered_finish_.find(v);
    if (exec_it != ordered_exec_.end()) {
      // Ordered statement-mode transaction: re-execute here.
      is_exec = true;
      reply_to = exec_it->second.second;
      ExecTxnMsg exec_msg = exec_it->second.first;
      ordered_exec_.erase(exec_it);
      exec_msg.hold_commit = false;
      exec_msg.order = 0;
      client_trace = exec_msg.trace_id;
      {
        // Write-ahead: the statements land in the durable log before the
        // engine runs them, so a crash mid-apply replays this slot.
        ReplicationEntry logged;
        logged.version = v;
        logged.statements = exec_msg.statements;
        logged.use_statements = true;
        logged.origin_commit_us = sim_->Now();
        DurableAppend(logged);
      }
      RunTransaction(exec_msg, reply_to, &exec_reply);
      exec_reply.req_id = exec_msg.req_id;
      cost = exec_reply.cost_us;
      for (const std::string& k : exec_reply.writeset.ConflictKeys()) {
        conflict_keys.push_back(k);
      }
    } else if (fin_it != ordered_finish_.end()) {
      // Certification commit of a held transaction.
      is_finish = true;
      FinishTxnMsg fmsg = fin_it->second.first;
      reply_to = fin_it->second.second;
      ordered_finish_.erase(fin_it);
      client_trace = fmsg.trace_id;
      finish_reply.req_id = fmsg.req_id;
      finish_reply.version = v;
      {
        // Write-ahead of the certified row images under this slot's
        // version (the entry may carry its origin-local version).
        ReplicationEntry logged = fmsg.entry;
        logged.version = v;
        DurableAppend(logged);
      }
      auto hit = held_.find(fmsg.req_id);
      if (hit == held_.end()) {
        // Held txn died after the slot was reserved: apply the certified
        // row images so the data still commits here.
        Result<engine::CommitSeq> applied =
            engine_->ApplyWriteset(fmsg.entry.writeset);
        if (!applied.ok()) {
          ++apply_errors_;
          ReplicaMetrics::Get().apply_errors->Increment();
        }
        cost = ApplyCost(fmsg.entry);
        for (const std::string& k : fmsg.entry.writeset.ConflictKeys()) {
          conflict_keys.push_back(k);
        }
      } else {
        engine::ExecResult commit = engine_->Commit(hit->second.session);
        finish_reply.status = commit.status;
        cost = commit.cost_us;
        for (const std::string& k : hit->second.writeset.ConflictKeys()) {
          conflict_keys.push_back(k);
        }
        engine_->Disconnect(hit->second.session);
        held_.erase(hit);
      }
    } else if (!item.skip) {
      // Replication-stream apply: write-ahead, then apply.
      DurableAppend(item.entry);
      const ReplicationEntry& entry = item.entry;
      if (entry.use_statements || entry.writeset.empty() ||
          entry.writeset.incomplete) {
        StatementApply applied = ApplyStatements(entry.statements);
        cost += applied.cost_us;
        if (!applied.ok) {
          ++apply_errors_;
          ReplicaMetrics::Get().apply_errors->Increment();
        }
        // Coarse conflict granularity for statement apply: whole stream.
        conflict_keys.push_back("*");
      } else {
        Result<engine::CommitSeq> applied =
            engine_->ApplyWriteset(entry.writeset);
        if (!applied.ok() && applied.status().IsRetryableAbort() &&
            !held_.empty()) {
          // A local uncommitted (held) transaction blocks the certified
          // apply. The replication stream wins: kill the held transactions
          // whose writesets intersect this entry and retry. The victims
          // would have failed certification against this entry anyway;
          // their clients see a retryable abort.
          std::set<std::string> entry_keys;
          for (const std::string& k : entry.writeset.ConflictKeys()) {
            entry_keys.insert(k);
          }
          for (auto hit = held_.begin(); hit != held_.end();) {
            bool overlaps = false;
            for (const std::string& k : hit->second.writeset.ConflictKeys()) {
              if (entry_keys.count(k)) {
                overlaps = true;
                break;
              }
            }
            if (overlaps) {
              if (engine_->HasSession(hit->second.session)) {
                engine_->Rollback(hit->second.session);
                engine_->Disconnect(hit->second.session);
              }
              hit = held_.erase(hit);
            } else {
              ++hit;
            }
          }
          applied = engine_->ApplyWriteset(entry.writeset);
        }
        if (!applied.ok()) {
          ++apply_errors_;
          ReplicaMetrics::Get().apply_errors->Increment();
        }
        cost = ApplyCost(entry, item.group_follower &&
                                    apply_sched_.AmortizesGroupFollowers());
        for (const std::string& k : entry.writeset.ConflictKeys()) {
          conflict_keys.push_back(k);
        }
      }
    }

    // The engine now holds exactly the effects of versions <= v: fire any
    // audit barrier this version satisfies before draining further.
    if (!pending_audits_.empty()) CheckAuditBarriers();
    MaybeCheckpoint();

    // --- Timing model ---
    sim::TimePoint now = sim_->Now();
    sim::TimePoint arrival = now;
    auto arr_it = ordered_arrival_.find(v);
    if (arr_it != ordered_arrival_.end()) {
      arrival = arr_it->second;
      ordered_arrival_.erase(arr_it);
    }
    // The scheduler decides when this entry's apply work runs (policy,
    // worker pool, conflict-key dependencies) and when its effects become
    // visible (in-order watermark). The engine already incorporated the
    // entry above — scheduling is pure timing metadata.
    ApplyEntryTiming t = apply_sched_.Schedule(v, now, cost, conflict_keys);
    sim::TimePoint start = t.start;
    sim::TimePoint finish = t.finish;
    sim::TimePoint completion = t.completion;

    // Per-stage breakdown: queue wait (buffered + worker wait), dep wait
    // (conflicting-predecessor / barrier wait — distinct so lock wait
    // never double-counts against the queue), service (engine/apply
    // cost), commit wait (in-order release).
    ReplicaMetrics& rm = ReplicaMetrics::Get();
    rm.apply_entries->Increment();
    rm.apply_queue_wait_ms->Observe(
        sim::ToMillis((now - arrival) + (start - t.dep_ready)));
    rm.apply_dep_wait_ms->Observe(sim::ToMillis(t.dep_ready - now));
    rm.apply_service_ms->Observe(sim::ToMillis(cost));
    rm.apply_commit_wait_ms->Observe(sim::ToMillis(completion - finish));
    if (obs::TracingEnabled()) {
      obs::Tracer& tracer = obs::Tracer::Global();
      if (start > arrival) tracer.Span(track_, "apply.wait", arrival, start, v);
      tracer.Span(track_, "apply.exec", start, finish, v);
      if (completion > finish) {
        tracer.Span(track_, "apply.commit", finish, completion, v);
      }
    }

    int64_t origin_us = item.entry.origin_commit_us;
    if (obs::CriticalPathEnabled()) {
      auto& cp = obs::CriticalPathCollector::Global();
      if (client_trace != 0) {
        // An ordered slot resolving a client transaction: the wait for
        // its total-order turn is certification/order delay, the in-order
        // release hold is group commit.
        if (start > arrival) {
          cp.RecordWait(obs::ChainKind::kClient, client_trace, 0,
                        obs::WaitState::kCertOrder, arrival, start);
        }
        if (finish > start) {
          cp.RecordWait(obs::ChainKind::kClient, client_trace, 0,
                        obs::WaitState::kService, start, finish);
        }
        if (completion > finish) {
          cp.RecordWait(obs::ChainKind::kClient, client_trace, 0,
                        obs::WaitState::kGroupCommit, finish, completion);
        }
      }
      if (origin_us > 0) {
        const uint64_t sub = static_cast<uint64_t>(id());
        // [arrival, now): buffered behind the stream (apply backlog).
        // [now, dep_ready): waiting on conflicting predecessors (dep
        //   wait — empty under serial policies, where dep_ready == now).
        // [dep_ready, start): waiting for a free worker (backlog again —
        //   the pool, not the dependency graph, is the bottleneck).
        if (now > arrival) {
          cp.RecordWait(obs::ChainKind::kApply, v, sub,
                        obs::WaitState::kApplyBacklog, arrival, now);
        }
        if (t.dep_ready > now) {
          cp.RecordWait(obs::ChainKind::kApply, v, sub,
                        obs::WaitState::kDepWait, now, t.dep_ready);
        }
        if (start > t.dep_ready) {
          cp.RecordWait(obs::ChainKind::kApply, v, sub,
                        obs::WaitState::kApplyBacklog, t.dep_ready, start);
        }
        if (finish > start) {
          cp.RecordWait(obs::ChainKind::kApply, v, sub,
                        obs::WaitState::kService, start, finish);
        }
        if (completion > finish) {
          cp.RecordWait(obs::ChainKind::kApply, v, sub,
                        obs::WaitState::kGroupCommit, finish, completion);
        }
      }
    }
    uint64_t epoch = epoch_;
    sim_->ScheduleAt(
        completion, [this, epoch, v, origin_us, is_exec, is_finish, exec_reply,
                     finish_reply, reply_to, client_trace] {
          if (epoch != epoch_ || crashed_) return;
          if (v > applied_version_) {
            applied_version_ = v;
            durable_log_->PersistWatermark(v);
            SendProgress();
            ReleaseCredits();
            DrainWaitingReads();
          }
          if (origin_us > 0 && sim_->Now() >= origin_us) {
            double lag_ms = sim::ToMillis(sim_->Now() - origin_us);
            ReplicaMetrics::Get().apply_lag_ms->Observe(lag_ms);
            lag_ms_gauge_->Set(static_cast<int64_t>(lag_ms));
            if (obs::CriticalPathEnabled()) {
              // The apply chain's window is exactly this entry's
              // replication lag at this replica.
              obs::CriticalPathCollector::Global().CloseChain(
                  obs::ChainKind::kApply, v, static_cast<uint64_t>(id()),
                  sim_->Now(), obs::ChainOutcome::kApplied);
            }
          }
          if (is_exec && reply_to >= 0) {
            dispatcher_->Send(reply_to, kMsgExecReply, exec_reply,
                              exec_reply.writeset.SizeBytes() + 256,
                              client_trace);
          }
          if (is_finish && reply_to >= 0) {
            dispatcher_->Send(reply_to, kMsgFinishReply, finish_reply,
                              kControlWireBytes, client_trace);
          }
        });
  }
  // GC: drop conflict keys that can no longer delay anything, and sweep
  // arrivals for versions already incorporated (belt-and-braces against
  // duplicate-enqueue leaks) — both maps stay bounded over a long run.
  apply_sched_.PruneCompleted(sim_->Now());
  ordered_arrival_.erase(ordered_arrival_.begin(),
                         ordered_arrival_.upper_bound(engine_applied_));
  backlog_gauge_->Set(static_cast<int64_t>(ordered_buffer_.size()));
  sched_keys_gauge_->Set(static_cast<int64_t>(apply_sched_.tracked_keys()));
}

// ---------------------------------------------------------------------------
// Shipping (master role)

void ReplicaNode::ShipCommitted(int sync_acks_for_version,
                                GlobalVersion sync_version) {
  (void)sync_acks_for_version;
  // Stage 1 — take the engine's commit outbox, so it never holds more than
  // one tick of commits. Only a shipping master appends it to the durable
  // log (a slave's engine commit_seq drifts below the global order when
  // stream applies fail, so its durable log is fed exclusively by
  // DrainOrderedBuffer); every other node drops it.
  std::vector<engine::BinlogEntry> committed = engine_->TakeBinlog();
  if (!subscribers_.empty()) {
    for (engine::BinlogEntry& be : committed) {
      ReplicationEntry entry;
      entry.version = be.commit_seq;
      // Prefer row images when they are complete; fall back to statements
      // (DDL, PK-less tables).
      entry.use_statements = be.writeset.empty() || be.writeset.incomplete;
      entry.writeset = std::move(be.writeset);
      entry.statements = std::move(be.statements);
      entry.origin_commit_us =
          be.commit_time_micros > 0 ? be.commit_time_micros : sim_->Now();
      DurableAppend(entry);
    }
    MaybeCheckpoint();
  }
  // Stage 2 — ship from the durable log: the pipeline reads a cursor over
  // the on-disk segments.
  bool sync_version_covered = false;
  if (!subscribers_.empty() && durable_log_->head_version() > last_shipped_) {
    binlog::LogCursor cur = durable_log_->Cursor(last_shipped_);
    ReplicationEntry entry;
    while (cur.Next(&entry)) {
      ++entries_shipped_;
      last_shipped_ = std::max<GlobalVersion>(last_shipped_, entry.version);
      if (entry.origin_commit_us <= 0) entry.origin_commit_us = sim_->Now();
      bool ack = entry.version == sync_version;
      if (ack) sync_version_covered = true;
      for (net::NodeId sub : subscribers_) {
        ship_pipeline_->Enqueue(sub, entry, ack);
      }
    }
  }
  // 2-safe commit whose entry already left with the periodic shipper:
  // re-read it from the log and re-send with an ack request (receivers
  // dedup but still ack).
  if (sync_version > 0 && !sync_version_covered && !subscribers_.empty()) {
    binlog::LogCursor cur = durable_log_->Cursor(sync_version - 1);
    ReplicationEntry entry;
    while (cur.Next(&entry)) {
      if (entry.version > sync_version) break;
      if (entry.version != sync_version) continue;
      if (entry.origin_commit_us <= 0) entry.origin_commit_us = sim_->Now();
      for (net::NodeId sub : subscribers_) {
        ship_pipeline_->Enqueue(sub, entry, /*ack_requested=*/true);
      }
      break;
    }
  }
  // A 2-safe commit must not sit behind the batching latency cap: the
  // client is waiting on the receipt acks.
  if (sync_version > 0) ship_pipeline_->FlushAll(ship::FlushReason::kSync);
}

// ---------------------------------------------------------------------------
// Durable log

void ReplicaNode::DurableAppend(const ReplicationEntry& entry) {
  if (entry.version <= durable_log_->head_version()) return;  // Duplicate.
  if (!durable_log_->Append(entry).ok()) return;  // Injected disk fault.
  ++entries_since_checkpoint_;
}

void ReplicaNode::MaybeCheckpoint() {
  if (options_.binlog.checkpoint_every == 0) return;
  if (entries_since_checkpoint_ < options_.binlog.checkpoint_every) return;
  TakeCheckpoint();
}

void ReplicaNode::TakeCheckpoint() {
  binlog::CheckpointRecord cp;
  cp.version = std::max(engine_applied_, engine_->last_commit_seq());
  cp.taken_at_us = sim_->Now();
  cp.digests = engine_->TableDigests();
  // Only a durable log is ever restored (Restart), so only it pays for an
  // image. Elsewhere the record still carries version, time and digests
  // for GC, the status console and log readers; restoring its empty image
  // would fail the digest check in RecoverFromDurableLog.
  if (options_.binlog.durable) {
    engine::BackupOptions bo;
    bo.include_metadata = true;
    bo.include_sequences = true;
    Result<engine::BackupImage> image = engine_->Backup(bo);
    if (!image.ok()) return;  // Disk full et al: retry at the next boundary.
    cp.image = image.TakeValue();
  }
  if (!durable_log_->AppendCheckpoint(cp).ok()) return;
  entries_since_checkpoint_ = 0;
  // GC sealed segments behind the slowest consumer: recovery needs
  // nothing before the previous checkpoint, and a shipping master must
  // also hold everything its subscribers have not received yet.
  GlobalVersion keep = std::min(cp.version, prev_checkpoint_version_);
  if (!subscribers_.empty()) keep = std::min(keep, last_shipped_);
  size_t dropped = durable_log_->TruncateThrough(keep);
  prev_checkpoint_version_ = cp.version;
  binlog::BinlogStats stats = durable_log_->Stats();
  obs::FlightRecorder::Global().Record(
      sim_->Now(), id(), obs::FlightEventKind::kBinlog,
      "checkpoint v=" + std::to_string(cp.version) +
          " segments=" + std::to_string(stats.segments) +
          " gc_records=" + std::to_string(dropped));
}

void ReplicaNode::RecoverFromDurableLog(sim::TimePoint now) {
  Result<binlog::RecoveryInfo> recovered = durable_log_->Recover();
  REPLIDB_CHECK(recovered.ok(), "binlog recovery: log scan failed");
  const binlog::RecoveryInfo& info = recovered.value();
  int64_t cost = 0;
  GlobalVersion restored = 0;
  if (info.have_checkpoint) {
    const binlog::CheckpointRecord& cp = info.checkpoint;
    Status st = engine_->Restore(cp.image);
    REPLIDB_CHECK(st.ok(), "binlog recovery: checkpoint image restore failed");
    // The paper's silent-divergence gap (§4): never trust a restored
    // image without proving it matches the digests captured at
    // checkpoint time. A failure here dumps the flight recorder.
    REPLIDB_CHECK(
        engine_->TableDigests() == cp.digests,
        "binlog recovery: restored engine digests do not match checkpoint");
    restored = cp.version;
    cost += static_cast<int64_t>(static_cast<double>(cp.image.SizeBytes()) /
                                 options_.backup_bytes_per_sec * sim::kSecond);
  }
  // Replay the tail. Entries at or below the checkpoint are already in
  // the image; the cursor skips them by version.
  uint64_t replayed = 0;
  GlobalVersion v = restored;
  binlog::LogCursor cur = durable_log_->Cursor(restored);
  ReplicationEntry entry;
  while (cur.Next(&entry)) {
    if (entry.version <= v) continue;
    v = entry.version;
    if (entry.use_statements || entry.writeset.empty() ||
        entry.writeset.incomplete) {
      cost += ApplyStatements(entry.statements).cost_us;
    } else {
      (void)engine_->ApplyWriteset(entry.writeset);
      cost += ApplyCost(entry);
    }
    ++replayed;
  }
  applied_version_ = v;
  engine_applied_ = v;
  // The replayed commits came from the durable log: nothing to ship.
  engine_->TakeBinlog();
  last_shipped_ = std::max(last_shipped_, v);
  durable_log_->PersistWatermark(v);
  // Recovery occupies the node: workers come back busy until the image
  // restore + tail replay are done, so reads routed here queue behind it.
  sim::TimePoint done = now + cost;
  std::fill(workers_free_.begin(), workers_free_.end(), done);
  // The scheduler restarts clean with every apply worker (and the
  // visibility watermark) held until recovery completes.
  apply_sched_.Reset(done);
  ++recoveries_;
  last_recovery_duration_ = cost;
  last_recovery_replayed_ = replayed;
  obs::FlightRecorder::Global().Record(
      now, id(), obs::FlightEventKind::kBinlog,
      "recover checkpoint=" + std::to_string(restored) +
          " replayed=" + std::to_string(replayed) +
          " to=" + std::to_string(v) +
          " truncated_bytes=" + std::to_string(info.truncated_bytes) +
          " dropped_segments=" + std::to_string(info.dropped_segments) +
          " cost_us=" + std::to_string(cost));
}

void ReplicaNode::CheckAuditBarriers() {
  while (!pending_audits_.empty() &&
         pending_audits_.begin()->first <= engine_applied_) {
    auto it = pending_audits_.begin();
    SendAuditReport(it->second.first, it->second.second);
    pending_audits_.erase(it);
  }
}

void ReplicaNode::SendAuditReport(uint64_t audit_epoch, net::NodeId to) {
  AuditReportMsg report;
  report.epoch = audit_epoch;
  report.captured_version = engine_applied_;
  report.last_applied_seq = engine_->last_commit_seq();
  report.digests = engine_->TableDigests();
  dispatcher_->Send(to, kMsgAuditReport, report,
                    static_cast<int64_t>(64 + 24 * report.digests.size()));
}

void ReplicaNode::SendProgress() {
  if (controller_ >= 0) {
    dispatcher_->Send(controller_, kMsgProgress,
                      ProgressMsg{applied_version_}, kAckWireBytes);
  }
}

void ReplicaNode::DrainWaitingReads() {
  if (waiting_reads_.empty()) return;
  std::vector<WaitingRead> still_waiting;
  std::vector<WaitingRead> ready;
  for (WaitingRead& wr : waiting_reads_) {
    if (wr.msg.min_version <= applied_version_) {
      ready.push_back(std::move(wr));
    } else {
      still_waiting.push_back(std::move(wr));
    }
  }
  waiting_reads_ = std::move(still_waiting);
  for (WaitingRead& wr : ready) {
    if (obs::CriticalPathEnabled() && wr.msg.trace_id != 0 &&
        sim_->Now() > wr.since) {
      // The freshness gate held this read until the replication stream
      // caught up: that is apply backlog on the client's path.
      obs::CriticalPathCollector::Global().RecordWait(
          obs::ChainKind::kClient, wr.msg.trace_id, 0,
          obs::WaitState::kApplyBacklog, wr.since, sim_->Now());
    }
    StartUnorderedExec(wr.msg, wr.from);
  }
}

int64_t ReplicaNode::TouchCache(const std::vector<std::string>& tables,
                                int64_t cost) {
  if (options_.hot_table_capacity <= 0 || tables.empty()) return cost;
  bool all_hot = true;
  for (const std::string& t : tables) {
    auto it = std::find(hot_tables_.begin(), hot_tables_.end(), t);
    if (it == hot_tables_.end()) {
      all_hot = false;
      hot_tables_.insert(hot_tables_.begin(), t);
      if (hot_tables_.size() >
          static_cast<size_t>(options_.hot_table_capacity)) {
        hot_tables_.pop_back();  // Evict the coldest table.
      }
    } else {
      // Move to front (most recently used).
      hot_tables_.erase(it);
      hot_tables_.insert(hot_tables_.begin(), t);
    }
  }
  return all_hot
             ? cost
             : static_cast<int64_t>(static_cast<double>(cost) *
                                    options_.cache_miss_penalty);
}

sim::TimePoint ReplicaNode::ChargeWorker(int64_t cost_us,
                                         sim::TimePoint* start_out) {
  auto worker = std::min_element(workers_free_.begin(), workers_free_.end());
  sim::TimePoint start = std::max(sim_->Now(), *worker);
  if (start_out != nullptr) *start_out = start;
  *worker = start + cost_us;
  return *worker;
}

int64_t ReplicaNode::ApplyCost(const ReplicationEntry& entry,
                               bool group_follower) const {
  // Followers of a shipped batch share one group fsync: only the fixed
  // per-commit cost is amortized, the per-op work is not.
  double base = options_.apply_base_us *
                (group_follower ? options_.apply_group_factor : 1.0);
  return static_cast<int64_t>(
      base +
      options_.apply_per_op_us * static_cast<double>(entry.writeset.ops.size()));
}

// ---------------------------------------------------------------------------
// Backup / restore endpoints

void ReplicaNode::HandleBackup(const net::Message& m) {
  if (crashed_) return;
  auto msg = std::any_cast<BackupMsg>(m.body);
  Result<engine::BackupImage> image = engine_->Backup(msg.options);
  BackupReplyMsg reply;
  reply.req_id = msg.req_id;
  reply.as_of_version = applied_version_;
  if (!image.ok()) {
    reply.status = image.status();
  } else {
    reply.image = image.TakeValue();
  }
  // A backup occupies a worker for size/throughput — degrading concurrent
  // queries on this replica (§4.4.1).
  int64_t cost = static_cast<int64_t>(
      static_cast<double>(reply.image.SizeBytes()) /
      options_.backup_bytes_per_sec * sim::kSecond);
  sim::TimePoint done = ChargeWorker(cost);
  uint64_t epoch = epoch_;
  net::NodeId from = m.from;
  sim_->ScheduleAt(done, [this, epoch, from, reply] {
    if (epoch != epoch_ || crashed_) return;
    dispatcher_->Send(from, kMsgBackupReply, reply,
                      reply.image.SizeBytes() + 128);
  });
}

void ReplicaNode::HandleRestore(const net::Message& m) {
  if (crashed_) return;
  auto msg = std::any_cast<RestoreMsg>(m.body);
  RestoreReplyMsg reply;
  reply.req_id = msg.req_id;
  reply.status = engine_->Restore(msg.image);
  if (reply.status.ok()) {
    applied_version_ = msg.as_of_version;
    engine_applied_ = msg.as_of_version;
    last_shipped_ = msg.as_of_version;
    // The image already contains every version up to as_of_version: drop
    // buffered stream entries the restore superseded (their slots are
    // below the drain cursor now and would otherwise leak forever), and
    // restart the apply scheduler from a clean state — its conflict keys
    // and watermark described a stream this replica no longer continues.
    ordered_buffer_.erase(ordered_buffer_.begin(),
                          ordered_buffer_.upper_bound(msg.as_of_version));
    ordered_arrival_.erase(ordered_arrival_.begin(),
                           ordered_arrival_.upper_bound(msg.as_of_version));
    ordered_exec_.erase(ordered_exec_.begin(),
                        ordered_exec_.upper_bound(msg.as_of_version));
    ordered_finish_.erase(ordered_finish_.begin(),
                          ordered_finish_.upper_bound(msg.as_of_version));
    apply_sched_.Reset(sim_->Now());
    sched_keys_gauge_->Set(0);
    // Re-baseline the durable log at the restored image: everything
    // before it is unreachable state from a previous life.
    TakeCheckpoint();
    durable_log_->PersistWatermark(msg.as_of_version);
    if (!pending_audits_.empty()) CheckAuditBarriers();
    // Entries beyond the image may already be buffered (resync replay
    // raced the live stream): incorporate them now.
    DrainOrderedBuffer();
  }
  int64_t cost = static_cast<int64_t>(
      static_cast<double>(msg.image.SizeBytes()) /
      options_.backup_bytes_per_sec * sim::kSecond);
  sim::TimePoint done = ChargeWorker(cost);
  uint64_t epoch = epoch_;
  net::NodeId from = m.from;
  sim_->ScheduleAt(done, [this, epoch, from, reply] {
    if (epoch != epoch_ || crashed_) return;
    dispatcher_->Send(from, kMsgRestoreReply, reply, kAdminWireBytes);
  });
}

void ReplicaNode::MarkSetupComplete() {
  GlobalVersion v = engine_->last_commit_seq();
  applied_version_ = v;
  engine_applied_ = v;
  last_shipped_ = v;
  // Seed data never flows through the shipping cursor, so the durable
  // log's baseline is this checkpoint: recovery restores it and replays
  // only post-setup entries.
  engine_->TakeBinlog();
  TakeCheckpoint();
}

void ReplicaNode::SetController(net::NodeId controller) {
  controller_ = controller;
}

}  // namespace replidb::middleware

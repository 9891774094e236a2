#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/rng.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "workload/load_generator.h"

namespace replidb::perfbench {

namespace {

using middleware::ReplicationMode;

// ---------------------------------------------------------------------------
// Workloads. Each stays below saturation at its offered rate, so every
// transaction commits and the cluster drains to one converged state.

WorkloadSpec MsTicket() {
  WorkloadSpec w;
  w.name = "ms_ticket";
  w.cluster = bench::BenchDefaults();
  w.cluster.replicas = 4;
  w.cluster.controller.mode = ReplicationMode::kMasterSlaveAsync;
  w.make_workload = [] {
    return std::make_unique<workload::TicketBrokerWorkload>();
  };
  w.rate_tps = 3000;
  w.traffic = 4 * sim::kSecond;
  return w;
}

WorkloadSpec MsWriteDurable() {
  WorkloadSpec w;
  w.name = "ms_write_durable";
  w.cluster = bench::BenchDefaults();
  w.cluster.replicas = 4;
  w.cluster.controller.mode = ReplicationMode::kMasterSlaveAsync;
  w.cluster.replica.binlog.durable = true;
  w.cluster.replica.apply_policy = middleware::ApplyPolicy::kConflictGraph;
  w.make_workload = [] {
    workload::MicroWorkload::Options o;
    o.rows = 20000;
    o.write_fraction = 0.5;
    o.statements_per_write = 2;
    return std::make_unique<workload::MicroWorkload>(o);
  };
  w.rate_tps = 800;
  w.traffic = 8 * sim::kSecond;
  return w;
}

WorkloadSpec MmCert() {
  WorkloadSpec w;
  w.name = "mm_cert";
  w.cluster = bench::BenchDefaults();
  w.cluster.replicas = 4;
  w.cluster.controller.mode = ReplicationMode::kMultiMasterCertification;
  w.make_workload = [] {
    workload::MicroWorkload::Options o;
    o.rows = 20000;
    o.write_fraction = 0.3;
    o.hot_fraction = 0.1;
    return std::make_unique<workload::MicroWorkload>(o);
  };
  w.rate_tps = 800;
  w.traffic = 8 * sim::kSecond;
  return w;
}

// ---------------------------------------------------------------------------
// Open-loop Poisson arrivals in virtual time (the same process as
// workload::OpenLoopGenerator), recording each outcome and, in traced
// repetitions, each request for the replays.
class Traffic {
 public:
  Traffic(sim::Simulator* sim, client::Driver* driver, workload::Workload* wl,
          double rate_tps, uint64_t seed, Capture* capture)
      : sim_(sim),
        driver_(driver),
        wl_(wl),
        mean_gap_us_(1e6 / rate_tps),
        rng_(seed),
        capture_(capture) {}
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  void Arm(sim::TimePoint stop_at) {
    stop_at_ = stop_at;
    stats_.elapsed = stop_at - sim_->Now();
    ScheduleNext();
  }
  bool Done() const {
    return sim_->Now() >= stop_at_ &&
           stats_.committed + stats_.failed == stats_.submitted;
  }

  workload::RunStats stats_;
  uint64_t write_attempts_ = 0;
  uint64_t writes_committed_ = 0;
  uint64_t statements_ = 0;

 private:
  void ScheduleNext() {
    auto gap = static_cast<sim::Duration>(rng_.Exponential(mean_gap_us_));
    if (gap < 1) gap = 1;
    sim_->Schedule(gap, [this] {
      if (sim_->Now() >= stop_at_) return;
      Fire();
      ScheduleNext();
    });
  }

  void Fire() {
    middleware::TxnRequest req = wl_->Next(&rng_);
    ++stats_.submitted;
    statements_ += req.statements.size();
    bool read_only = req.read_only;
    size_t index = 0;
    if (capture_ != nullptr) {
      index = capture_->txns.size();
      capture_->txns.push_back(TxnRecord{req, false, 0});
    }
    driver_->Submit(std::move(req), [this, read_only, index](
                                        const middleware::TxnResult& r) {
      middleware::TxnRequest tag;
      tag.read_only = read_only;
      workload::Record(&stats_, tag, r);
      if (!read_only) {
        write_attempts_ += 1 + static_cast<uint64_t>(r.retries);
        if (r.status.ok()) ++writes_committed_;
      }
      if (capture_ != nullptr && r.status.ok()) {
        capture_->txns[index].committed = true;
        capture_->txns[index].version = r.version;
      }
    });
  }

  sim::Simulator* sim_;
  client::Driver* driver_;
  workload::Workload* wl_;
  double mean_gap_us_;
  Rng rng_;
  Capture* capture_;
  sim::TimePoint stop_at_ = 0;
};

/// Reads newly appended frames off a LogStore after each slice. Only the
/// frames past the last seen offset of each segment are parsed.
class LogTap {
 public:
  explicit LogTap(const binlog::LogStore* store) : store_(store) {}

  void Poll(uint64_t slice, std::vector<LoggedRecord>* out) {
    std::vector<uint64_t> segs = store_->List();
    for (uint64_t seg : segs) {
      if (seg < next_segment_) continue;
      Result<std::string> data = store_->Read(seg);
      if (!data.ok()) continue;
      std::string_view bytes(data.value());
      uint64_t& off = offsets_[seg];
      binlog::RecordView view;
      while (off < bytes.size() &&
             binlog::ParseRecord(bytes.substr(off), &view).ok()) {
        out->push_back(
            LoggedRecord{view.type, std::string(view.payload), slice});
        off += view.frame_bytes;
      }
    }
    // Sealed segments never change again; only the newest is re-read.
    if (!segs.empty()) next_segment_ = segs.back();
  }

 private:
  const binlog::LogStore* store_;
  std::map<uint64_t, uint64_t> offsets_;
  uint64_t next_segment_ = 0;
};

void ResetProcessObs() {
  obs::MetricsRegistry::Global().Reset();
  obs::FlightRecorder::Global().Reset();
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();
  obs::CriticalPathCollector::Global().Disable();
  obs::CriticalPathCollector::Global().Reset();
  obs::ResetTraceIds();
}

Histogram Hist(const char* name) {
  return obs::MetricsRegistry::Global().HistogramCopy(name);
}

void AppendHist(std::string* out, const char* label, const Histogram& h) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s=%zu/%.17g/%.17g/%.17g;", label,
                h.count(), h.sum(), h.Percentile(50), h.Percentile(99));
  *out += buf;
}

}  // namespace

std::vector<std::pair<uint64_t, std::string>> SegmentBytes(
    const binlog::LogStore& store) {
  std::vector<std::pair<uint64_t, std::string>> out;
  for (uint64_t seg : store.List()) {
    Result<std::string> data = store.Read(seg);
    out.emplace_back(seg, data.ok() ? data.value() : std::string());
  }
  return out;
}

std::vector<WorkloadSpec> Workloads() {
  return {MsTicket(), MsWriteDurable(), MmCert()};
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      *out = std::move(w);
      return true;
    }
  }
  return false;
}

std::string RepResult::Fingerprint() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "att=%llu com=%llu fail=%llu retr=%llu watt=%llu wcom=%llu stm=%llu "
      "lag=%.17g bytes=%llu msgs=%llu ev=%llu pend=%llu wire=%llu "
      "shipped=%llu shadow=%llu retained=%llu ts=%llu gate=%d;",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(write_attempts),
      static_cast<unsigned long long>(writes_committed),
      static_cast<unsigned long long>(statements), peak_lag,
      static_cast<unsigned long long>(bytes_delivered),
      static_cast<unsigned long long>(messages_delivered),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(pending_peak),
      static_cast<unsigned long long>(ship_wire_bytes),
      static_cast<unsigned long long>(ship_entries),
      static_cast<unsigned long long>(shadow_log_entries),
      static_cast<unsigned long long>(retained_bytes),
      static_cast<unsigned long long>(timeseries_points), GatePassed());
  std::string out = buf;
  AppendHist(&out, "lat", latency_ms);
  AppendHist(&out, "proc", process_ms);
  AppendHist(&out, "eqw", exec_queue_wait_ms);
  AppendHist(&out, "aqw", apply_queue_wait_ms);
  AppendHist(&out, "adw", apply_dep_wait_ms);
  AppendHist(&out, "alag", apply_lag_ms);
  return out;
}

RepResult RunRepetition(const WorkloadSpec& spec, uint64_t seed,
                        const RepOptions& options) {
  ResetProcessObs();
  if (options.obs_on) {
    obs::Tracer::Global().Enable();
    obs::CriticalPathCollector::Global().Enable();
    obs::CriticalPathCollector::Global().SetMode(
        middleware::ReplicationModeName(spec.cluster.controller.mode));
  }
  SpanRecorder* spans = options.spans;
  Capture* capture = options.capture;
  std::unique_ptr<workload::Workload> wl = spec.make_workload();
  RepResult r;

  // --- Set-up: construct, load, start, let heartbeats settle. ---------
  int64_t t0 = NowNs();
  std::unique_ptr<middleware::Cluster> c;
  {
    ScopedSpan s(spans, "setup.load");
    {
      ScopedSpan s2(spans, "cluster.construct");
      c = std::make_unique<middleware::Cluster>(spec.cluster);
    }
    std::vector<std::string> setup = wl->SetupStatements();
    ScopedSpan s3(spans, "cluster.setup");
    s3.set_items(setup.size());
    c->Setup(setup);
    if (capture != nullptr) capture->setup = std::move(setup);
  }
  int64_t t1 = NowNs();
  {
    ScopedSpan s(spans, "setup.start");
    {
      ScopedSpan s2(spans, "cluster.start");
      c->Start();
    }
    ScopedSpan s3(spans, "cluster.settle");
    c->sim.RunFor(sim::kSecond);
  }
  int64_t t2 = NowNs();
  r.load_s = static_cast<double>(t1 - t0) / 1e9;
  r.start_s = static_cast<double>(t2 - t1) / 1e9;

  ReplicationMode mode = spec.cluster.controller.mode;
  bool ms = mode == ReplicationMode::kMasterSlaveAsync ||
            mode == ReplicationMode::kMasterSlaveSync;
  middleware::ReplicaNode* owner = c->replica(0);
  if (ms) {
    for (const auto& node : c->replicas) {
      if (node->id() == c->controller->master()) owner = node.get();
    }
  }
  std::unique_ptr<LogTap> tap;
  if (capture != nullptr) tap = std::make_unique<LogTap>(owner->log_store());

  // --- Measured phase: open-loop traffic, then drain. ------------------
  Traffic traffic(&c->sim, c->driver(), wl.get(), spec.rate_tps, seed,
                  capture);
  const sim::Duration slice = spec.cluster.replica.ship_interval;
  const sim::Duration drain_cap = 60 * sim::kSecond;
  uint64_t events0 = c->sim.events_executed();
  uint64_t bytes0 = c->network->bytes_delivered();
  uint64_t msgs0 = c->network->messages_delivered();
  uint64_t slice_index = 0;
  auto run_slice = [&] {
    {
      ScopedSpan s(spans, "sim.run_for");
      c->sim.RunFor(slice);
    }
    r.pending_peak =
        std::max<uint64_t>(r.pending_peak, c->sim.pending_events());
    if (tap != nullptr) {
      ScopedSpan s(spans, "bench.log_tap");
      tap->Poll(slice_index, &capture->log);
    }
    ++slice_index;
  };
  auto caught_up = [&] {
    for (const auto& node : c->replicas) {
      if (node->applied_version() != c->controller->global_version()) {
        return false;
      }
    }
    return true;
  };
  int64_t t3 = NowNs();
  sim::TimePoint stop_at = c->sim.Now() + spec.traffic;
  {
    ScopedSpan s(spans, "phase.traffic");
    traffic.Arm(stop_at);
    while (c->sim.Now() < stop_at) run_slice();
  }
  {
    ScopedSpan s(spans, "phase.drain");
    sim::TimePoint give_up = c->sim.Now() + drain_cap;
    while (!(traffic.Done() && caught_up()) && c->sim.Now() < give_up) {
      run_slice();
    }
  }
  int64_t t4 = NowNs();
  r.measured_s = static_cast<double>(t4 - t3) / 1e9;

  // --- Outcome (untimed). ---------------------------------------------
  const workload::RunStats& st = traffic.stats_;
  r.drained = traffic.Done() && caught_up();
  r.converged = c->Converged();
  r.distinct_contents = c->DistinctContents();
  r.apply_errors = c->TotalApplyErrors();
  r.attempted = st.submitted;
  r.committed = st.committed;
  r.failed = st.failed;
  r.retries = st.retries;
  r.write_attempts = traffic.write_attempts_;
  r.writes_committed = traffic.writes_committed_;
  r.statements = traffic.statements_;
  r.latency_ms = st.latency_ms;
  r.traffic_s = sim::ToSeconds(spec.traffic);
  r.events = c->sim.events_executed() - events0;
  r.bytes_delivered = c->network->bytes_delivered() - bytes0;
  r.messages_delivered = c->network->messages_delivered() - msgs0;
  for (const std::string& name : c->timeseries().SeriesNames()) {
    const obs::Series* s = c->timeseries().FindSeries(name);
    if (s == nullptr) continue;
    r.timeseries_points += s->size();
    if (name.find(".lag_versions") != std::string::npos && s->size() > 0) {
      r.peak_lag = std::max(r.peak_lag, s->MaxValue());
    }
  }
  r.apply_lag_ms = Hist("replica.apply.lag_ms");
  if (options.obs_on) {
    for (const obs::PathStageStat& st :
         obs::CriticalPathCollector::Global().StageStats()) {
      if (st.kind == obs::ChainKind::kClient &&
          st.outcome == obs::ChainOutcome::kCommit &&
          st.state == obs::WaitState::kCertOrder) {
        r.cert_order_p99_ms = st.p99_ms;
        r.cert_order_chains = st.chains;
      }
    }
  }
  r.process_ms = Hist("middleware.controller.process_ms");
  r.exec_queue_wait_ms = Hist("replica.exec.queue_wait_ms");
  r.apply_queue_wait_ms = Hist("replica.apply.queue_wait_ms");
  r.apply_dep_wait_ms = Hist("replica.apply.dep_wait_ms");
  const obs::Counter* wire =
      obs::MetricsRegistry::Global().FindCounter("ship.wire.bytes_total");
  r.ship_wire_bytes = wire != nullptr ? wire->value() : 0;
  Histogram batch = Hist("ship.batch.entries");
  r.ship_entries = static_cast<uint64_t>(batch.sum());
  r.shadow_log_entries = owner->engine()->binlog().size();
  for (const auto& node : c->replicas) {
    r.retained_bytes += node->DurableLogStats().total_bytes;
  }

  if (capture != nullptr) {
    capture->shipping = ms;
    capture->log_options.segment_max_bytes =
        spec.cluster.replica.binlog.segment_max_bytes;
    capture->log_options.sync_every_append =
        spec.cluster.replica.binlog.sync_every_append;
    capture->engine_options = owner->engine()->options();
    // The owner's clock reads the simulator, which dies with the cluster.
    capture->engine_options.clock = [] { return int64_t{0}; };
    capture->codec = ms ? spec.cluster.replica.ship.codec
                        : spec.cluster.controller.ship.codec;
    capture->mean_batch_entries = batch.count() > 0 ? batch.Mean() : 1.0;
    capture->owner_content_hash = owner->engine()->ContentHash();
    capture->owner_shipped_version = owner->shipped_version();
    capture->owner_segments = SegmentBytes(*owner->log_store());
  }
  {
    ScopedSpan s(spans, "cluster.destroy");
    c.reset();
  }
  ResetProcessObs();
  return r;
}

}  // namespace replidb::perfbench

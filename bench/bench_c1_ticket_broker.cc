// C1 — §1: the Fortune-500 travel-broker case.
//
// 95 % reads, 5 % writes, but absolute write volume is high. The paper:
// "a system using 2-phase-commit, or any other form of synchronous
// replication, would fail to meet customer performance requirements (thus
// confirming Gray's prediction)". We sweep offered load across replication
// strategies and watch who keeps up.

#include <cstdio>

#include "bench/bench_util.h"

namespace replidb::bench {
namespace {

using middleware::ReplicationMode;

/// Passes a workload through and counts the statements its clients submit.
class CountingWorkload : public workload::Workload {
 public:
  explicit CountingWorkload(workload::Workload* inner) : inner_(inner) {}
  std::vector<std::string> SetupStatements() const override {
    return inner_->SetupStatements();
  }
  middleware::TxnRequest Next(Rng* rng) override {
    middleware::TxnRequest r = inner_->Next(rng);
    statements_ += r.statements.size();
    return r;
  }
  uint64_t statements() const { return statements_; }

 private:
  workload::Workload* inner_;
  uint64_t statements_ = 0;
};

/// SQL texts parsed so far: the controller's plus every replica engine's.
uint64_t StatementsParsed(const Cluster& c) {
  uint64_t n = c.controller->stats().statements_parsed;
  for (const auto& node : c.replicas) {
    n += node->engine()->stats().statements_parsed;
  }
  return n;
}

void Run() {
  metrics::Banner("C1 / §1: ticket broker (95/5) — async vs synchronous");
  BenchReport report("c1_ticket_broker");
  sim::Duration duration = (BenchShortMode() ? 3 : 10) * sim::kSecond;
  struct Mode {
    const char* label;
    ReplicationMode mode;
  };
  const Mode modes[] = {
      {"master-slave 1-safe async", ReplicationMode::kMasterSlaveAsync},
      {"master-slave 2-safe sync", ReplicationMode::kMasterSlaveSync},
      {"multi-master statement", ReplicationMode::kMultiMasterStatement},
      {"multi-master certification", ReplicationMode::kMultiMasterCertification},
  };
  TablePrinter table({"mode", "offered_tps", "achieved_tps", "write_mean_ms",
                      "write_p99_ms", "failed_pct"});
  for (const Mode& m : modes) {
    for (double offered : {1000.0, 3000.0, 6000.0}) {
      workload::TicketBrokerWorkload broker;
      CountingWorkload w(&broker);
      ClusterOptions opts = BenchDefaults();
      opts.replicas = 4;
      opts.controller.mode = m.mode;
      opts.driver.max_retries = 2;
      opts.driver.request_timeout = 2 * sim::kSecond;
      auto c = MakeCluster(std::move(opts), &w);
      uint64_t parsed_before = StatementsParsed(*c);
      RunStats stats = RunOpenLoop(c.get(), &w, offered, duration);
      if (m.mode == ReplicationMode::kMasterSlaveAsync && offered == 3000.0) {
        // Headline configuration for the committed trajectory.
        report.FromStats(stats);
        report.CaptureCluster(*c, stats.committed);
        // SQL texts parsed per client statement, set-up load excluded:
        // 1 when only the controller parses, more when replicas re-parse.
        uint64_t parsed = StatementsParsed(*c) - parsed_before;
        report.Set("parses_per_stmt",
                   w.statements() > 0
                       ? static_cast<double>(parsed) /
                             static_cast<double>(w.statements())
                       : 0.0);
        // Log frames the master parsed per entry it shipped: about 1 when
        // each ship tick seeks to its start, hundreds when it rescans.
        for (const auto& node : c->replicas) {
          if (node->id() != c->controller->master()) continue;
          uint64_t shipped = node->entries_shipped();
          report.Set("ship_frames_per_entry",
                     shipped > 0 ? static_cast<double>(
                                       node->DurableLogStats().frames_read) /
                                       static_cast<double>(shipped)
                                 : 0.0);
        }
      }
      table.AddRow({m.label, TablePrinter::Num(offered, 0),
                    TablePrinter::Num(stats.ThroughputTps(), 0),
                    TablePrinter::Num(stats.write_latency_ms.Mean(), 2),
                    TablePrinter::Num(stats.write_latency_ms.Percentile(99), 2),
                    TablePrinter::Num(100.0 * stats.AbortRate(), 2)});
    }
  }
  table.Print("offered vs achieved load per replication strategy (4 replicas)");
  std::printf(
      "\nExpected shape: async master-slave rides the read scale-out and\n"
      "keeps write latency flat; statement-mode pays every write on every\n"
      "replica and saturates first; certification adds a round trip per\n"
      "write; 2-safe adds the slave ack to every commit (§1, §2.1).\n");
  report.Write();
}

}  // namespace
}  // namespace replidb::bench

int main() {
  replidb::bench::Run();
  replidb::bench::DumpFlightIfEnabled();
  return 0;
}

#include "middleware/cluster.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/recorder.h"

namespace replidb::middleware {

Cluster::Cluster(ClusterOptions opts) : options(std::move(opts)) {
  // Any REPLIDB_CHECK failure from here on dumps the flight recorder's
  // event tail next to the assertion message.
  obs::FlightRecorder::InstallCheckHook();
  network = std::make_unique<net::Network>(&sim, options.network);

  std::vector<ReplicaNode*> replica_ptrs;
  for (int i = 0; i < options.replicas; ++i) {
    engine::RdbmsOptions eopts = options.engine;
    eopts.name = "replica-" + std::to_string(i + 1);
    eopts.physical_seed = 1000 + static_cast<uint64_t>(i);
    eopts.rand_seed = 2000 + static_cast<uint64_t>(i);
    int64_t skew = options.clock_skew_per_replica * i;
    sim::Simulator* s = &sim;
    eopts.clock = [s, skew] { return s->Now() + skew; };
    ReplicaOptions ropts = options.replica;
    if (static_cast<size_t>(i) < options.per_replica_capacity.size()) {
      ropts.capacity = options.per_replica_capacity[static_cast<size_t>(i)];
    }
    auto node = std::make_unique<ReplicaNode>(&sim, network.get(), i + 1,
                                              eopts, ropts);
    replica_ptrs.push_back(node.get());
    replicas.push_back(std::move(node));
  }

  controller = std::make_unique<Controller>(&sim, network.get(), 100,
                                            replica_ptrs, options.controller);

  for (int i = 0; i < options.drivers; ++i) {
    drivers.push_back(std::make_unique<client::Driver>(
        &sim, network.get(), 200 + i,
        std::vector<net::NodeId>{controller->id()}, options.driver));
  }
}

Cluster::~Cluster() = default;

void Cluster::Start() {
  controller->Start();
  RegisterProbes();
  if (options.sample_interval > 0) {
    sampler_ = std::make_unique<sim::PeriodicTask>(
        &sim, options.sample_interval,
        [this] { hub_.SampleProbes(sim.Now()); });
    sampler_->Start();
  }
}

void Cluster::RegisterProbes() {
  Controller* ctrl = controller.get();
  for (const auto& replica_ptr : replicas) {
    ReplicaNode* node = replica_ptr.get();
    std::string prefix = "replica." + std::to_string(node->id());
    hub_.RegisterProbe(prefix + ".lag_versions", [ctrl, node] {
      GlobalVersion head = ctrl->global_version();
      GlobalVersion applied = node->applied_version();
      return static_cast<double>(head > applied ? head - applied : 0);
    });
    hub_.RegisterProbe(prefix + ".backlog", [node] {
      return static_cast<double>(node->apply_backlog());
    });
    hub_.RegisterProbe(prefix + ".queue_depth", [node] {
      return static_cast<double>(node->QueueDepth());
    });
    // Tightest remaining credit window any pusher holds toward this
    // replica (master binlog stream and/or controller push paths).
    net::NodeId id = node->id();
    hub_.RegisterProbe(prefix + ".ship_window_bytes", [this, ctrl, id] {
      int64_t window = ctrl->ship_pipeline().WindowBytes(id);
      for (const auto& other : replicas) {
        if (other->id() == id || other->crashed()) continue;
        window = std::min(window, other->ship_pipeline().WindowBytes(id));
      }
      return static_cast<double>(window);
    });
  }
  hub_.RegisterProbe("controller.pending_txns", [ctrl] {
    return static_cast<double>(ctrl->PendingCount());
  });
  hub_.RegisterProbe("controller.head_version", [ctrl] {
    return static_cast<double>(ctrl->global_version());
  });
}

void Cluster::Setup(const std::vector<std::string>& statements) {
  for (auto& r : replicas) {
    for (const std::string& stmt : statements) {
      engine::ExecResult res = r->AdminExec(stmt);
      REPLIDB_CHECK(res.ok(), ("setup failed: " + res.status.ToString() +
                               " for " + stmt).c_str());
      // Every replica runs the load itself, so it never enters the
      // replication stream: drop it from the commit outbox as it goes.
      r->engine()->TakeBinlog();
    }
  }
}

bool Cluster::Converged() const { return DistinctContents() <= 1; }

int Cluster::DistinctContents() const {
  std::set<uint64_t> hashes;
  for (const auto& r : replicas) {
    if (!r->crashed()) hashes.insert(r->engine()->ContentHash());
  }
  return static_cast<int>(hashes.size());
}

uint64_t Cluster::TotalApplyErrors() const {
  uint64_t n = 0;
  for (const auto& r : replicas) n += r->apply_errors();
  return n;
}

}  // namespace replidb::middleware

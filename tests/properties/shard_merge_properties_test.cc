// Compatibility property for ClusterConfig::threads. Runs used to shard
// their placement scans and per-server sweeps over that many threads; the
// field is now an unused slot that older callers still set and snapshots
// still carry. Replaying the SAME randomized event sequence with the slot at
// 1 and 7 must produce bitwise-exact results -- the metrics JSON, the
// event-trace JSONL, the per-server accounting aggregates, the usage
// samples and the HighPriorityEffectiveCpu readings. Seeded from
// DEFL_FAULT_SEED so CI can run a matrix.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/cluster/cluster_sim.h"

namespace defl {
namespace {

const int kThreadCounts[] = {1, 7};

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

std::unique_ptr<Vm> RandomVm(VmId id, Rng& rng) {
  VmSpec spec;
  spec.name = "vm" + std::to_string(id);
  spec.size = ResourceVector(static_cast<double>(rng.UniformInt(1, 12)),
                             static_cast<double>(rng.UniformInt(1, 12)) * 4096.0);
  spec.priority = rng.Uniform(0.0, 1.0) < 0.6 ? VmPriority::kLow : VmPriority::kHigh;
  spec.min_size = spec.size * rng.Uniform(0.0, 0.6);
  return std::make_unique<Vm>(id, spec);
}

// --- Full-simulation replay ------------------------------------------------

// Returns the run's metrics JSON and event-trace JSONL; every
// ClusterSimResult field is derived from the same registry.
std::string RunSim(int variant, int threads) {
  ClusterSimConfig config;
  config.num_servers = 20;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.seed = TestSeed() + static_cast<uint64_t>(variant) * 1009;
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace.max_lifetime_s = 1.0 * 3600.0;
  config.trace =
      WithTargetLoad(config.trace, 1.6, config.num_servers, config.server_capacity);
  config.cluster.placement = static_cast<PlacementPolicy>(variant % 3);
  config.cluster.strategy = variant % 2 == 0 ? ReclamationStrategy::kDeflation
                                             : ReclamationStrategy::kPreemptionOnly;
  config.reinflate_period_s = variant % 3 == 0 ? 0.0 : 600.0;
  config.predictive_holdback = variant % 4 == 1;
  config.cluster.threads = threads;

  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  RunClusterSim(config);
  std::ostringstream out;
  telemetry.metrics().DumpJson(out);
  out << "\n";
  telemetry.trace().DumpJsonl(out);
  return out.str();
}

class ShardMergeSimTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardMergeSimTest, SimulationIsBitwiseExactAcrossShardCounts) {
  const std::string base = RunSim(GetParam(), kThreadCounts[0]);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, RunSim(GetParam(), kThreadCounts[1]));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardMergeSimTest, ::testing::Range(0, 8));

// --- Direct manager-op replay ----------------------------------------------

// Snapshot of everything the per-server sweeps compute, for comparison
// after an identical random op sequence.
struct ManagerSnapshot {
  std::vector<ServerAccounting> accounting;
  std::vector<ClusterManager::ServerUsageSample> usage;
  std::vector<double> high_pri_cpu_readings;
  ClusterCounters counters;
};

ManagerSnapshot RunRandomOps(int variant, int threads) {
  const uint64_t seed = TestSeed() + static_cast<uint64_t>(variant) * 7919;
  Rng rng(seed);
  ClusterConfig config;
  config.placement = static_cast<PlacementPolicy>(variant % 3);
  config.threads = threads;
  const int num_servers = 6;
  ClusterManager manager(num_servers, ResourceVector(16.0, 65536.0), config);

  ManagerSnapshot snap;
  std::vector<VmId> live;
  VmId next_id = 1;
  for (int op = 0; op < 300; ++op) {
    const int64_t roll = rng.UniformInt(0, 99);
    if (roll < 50) {  // launch (exercises the placement probes)
      const VmId id = next_id++;
      if (manager.LaunchVm(RandomVm(id, rng)).ok()) {
        live.push_back(id);
      }
    } else if (roll < 60 && !live.empty()) {  // complete
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      manager.CompleteVm(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 68 && !live.empty()) {  // explicit deflate
      // Frees capacity while leaving the VM deflated, so a later
      // ReinflateSweep has something real to give back.
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Server* server = manager.ServerOf(live[pick]);
      if (server != nullptr) {
        Vm* vm = server->FindVm(live[pick]);
        manager.controller(server->id())
            ->DeflateVm(live[pick], vm->deflatable_amount() * rng.Uniform(0.0, 1.0));
      }
    } else if (roll < 75) {  // reinflation sweep
      manager.ReinflateSweep(rng.Uniform(0.0, 2.0));
    } else if (roll < 85) {  // demand gather
      snap.high_pri_cpu_readings.push_back(manager.HighPriorityEffectiveCpu());
    } else if (roll < 92) {  // crash
      manager.CrashServer(rng.UniformInt(0, num_servers - 1));
    } else {  // recover + promote
      const ServerId target = rng.UniformInt(0, num_servers - 1);
      manager.RecoverServer(target);
      manager.MarkHealthy(target);
    }
    std::erase_if(live, [&manager](VmId id) { return manager.FindVm(id) == nullptr; });
  }

  manager.CollectUsageSamples(&snap.usage);
  for (Server* server : manager.servers()) {
    snap.accounting.push_back(server->RecomputeAccounting());
  }
  snap.counters = manager.counters();
  return snap;
}

class ShardMergeOpsTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardMergeOpsTest, ManagerOpsAreBitwiseExactAcrossShardCounts) {
  const ManagerSnapshot base = RunRandomOps(GetParam(), kThreadCounts[0]);
  const ManagerSnapshot other = RunRandomOps(GetParam(), kThreadCounts[1]);
  ASSERT_EQ(base.accounting.size(), other.accounting.size());
  for (size_t i = 0; i < base.accounting.size(); ++i) {
    EXPECT_TRUE(base.accounting[i] == other.accounting[i]) << "server " << i;
  }
  ASSERT_EQ(base.usage.size(), other.usage.size());
  for (size_t i = 0; i < base.usage.size(); ++i) {
    EXPECT_EQ(base.usage[i].nominal_overcommitment, other.usage[i].nominal_overcommitment)
        << "server " << i;
    ASSERT_EQ(base.usage[i].vms.size(), other.usage[i].vms.size()) << "server " << i;
    for (size_t v = 0; v < base.usage[i].vms.size(); ++v) {
      EXPECT_EQ(base.usage[i].vms[v].low_priority, other.usage[i].vms[v].low_priority)
          << "server " << i << " vm " << v;
      EXPECT_EQ(base.usage[i].vms[v].nominal_cpu, other.usage[i].vms[v].nominal_cpu)
          << "server " << i << " vm " << v;
      EXPECT_EQ(base.usage[i].vms[v].effective_cpu, other.usage[i].vms[v].effective_cpu)
          << "server " << i << " vm " << v;
    }
  }
  EXPECT_EQ(base.high_pri_cpu_readings, other.high_pri_cpu_readings);
  EXPECT_EQ(base.counters.launched, other.counters.launched);
  EXPECT_EQ(base.counters.rejected, other.counters.rejected);
  EXPECT_EQ(base.counters.preempted, other.counters.preempted);
  EXPECT_EQ(base.counters.completed, other.counters.completed);
  EXPECT_EQ(base.counters.deflation_ops, other.counters.deflation_ops);
  EXPECT_EQ(base.counters.crash_replaced, other.counters.crash_replaced);
  EXPECT_EQ(base.counters.crash_preempted, other.counters.crash_preempted);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardMergeOpsTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace defl

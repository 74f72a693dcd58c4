// Property test for the structure-of-arrays placement mirror (DESIGN.md
// §12): after ANY sequence of cluster operations -- launches (which deflate
// or preempt under pressure), completions, explicit deflations, reinflations,
// crashes, recoveries -- a Refresh()ed FleetView row must be EXACTLY equal
// (bitwise, not approximately) to the owning server's accessors, and the
// SoA placement scan (PlaceVmFleet) must return the same decision as the
// serial object-graph reference (tests/cluster/placement_reference.h) for
// every policy and availability mode, including the 2-choices RNG draw
// sequence, both over every row and over the healthy rows only (crashes
// leave gaps in that candidate list). Every block maximum of the block-max
// index must equal a recomputation from the rows. The sequence runs on 5
// servers (one partial block) and on 150 (three blocks, the last partial),
// where whole blocks fill up and the scans skip them. Seeded from
// DEFL_FAULT_SEED so CI can run a seed matrix.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/cluster/placement.h"
#include "tests/cluster/placement_reference.h"

namespace defl {
namespace {

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

// Every block maximum a scan would read must equal the maximum of the
// availabilities of the block's rows. A Refresh() that forgot to record a
// changed row, or an update that read the wrong rows or columns or kept a
// maximum whose row dropped, fails here; BlockMaxConsistent checks every
// maximum that no Refresh() has changed since its last update.
void ExpectBlockMaxExact(FleetView& fleet) {
  ASSERT_EQ(fleet.num_blocks(),
            (fleet.size() + FleetView::kBlockRows - 1) / FleetView::kBlockRows);
  for (size_t block = 0; block < fleet.num_blocks(); ++block) {
    EXPECT_TRUE(fleet.BlockMaxConsistent(block)) << "block " << block;
  }
}

// Every mirrored row, after Refresh(), must be bitwise-equal to what the
// server's accessors report right now (RowConsistent re-reads the accessors
// and compares with operator==, i.e. exact doubles). A mutation path that
// forgot to notify the observer leaves a stale row and fails here.
void ExpectMirrorExact(ClusterManager& manager) {
  FleetView& fleet = manager.fleet();
  fleet.Refresh();
  ASSERT_FALSE(fleet.HasDirty());
  for (size_t row = 0; row < fleet.size(); ++row) {
    EXPECT_TRUE(fleet.RowConsistent(row)) << "row " << row;
  }
  ExpectBlockMaxExact(fleet);
}

// The SoA scan and the object-graph reference must agree exactly -- same
// feasibility verdict, same chosen server, same RNG consumption -- for
// every policy x availability mode over the candidate `servers`.
void ExpectScanEquivalent(ClusterManager& manager, const std::vector<Server*>& servers,
                          Rng& rng) {
  std::vector<uint32_t> rows;
  rows.reserve(servers.size());
  for (const Server* server : servers) {
    rows.push_back(static_cast<uint32_t>(server->id()));
  }
  const ResourceVector demand(static_cast<double>(rng.UniformInt(1, 12)),
                              static_cast<double>(rng.UniformInt(1, 12)) * 4096.0);
  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit,
        PlacementPolicy::kTwoChoices}) {
    for (const AvailabilityMode mode :
         {AvailabilityMode::kFreeOnly, AvailabilityMode::kFreePlusDeflatable,
          AvailabilityMode::kFreePlusPreemptible}) {
      const std::array<uint64_t, 4> saved = rng.SaveState();
      const Result<size_t> object_pick =
          PlaceVm(demand, servers, policy, rng, mode);
      const std::array<uint64_t, 4> object_after = rng.SaveState();
      rng.RestoreState(saved);
      const Result<size_t> fleet_pick =
          PlaceVmFleet(demand, manager.fleet(), rows, policy, rng, mode);
      EXPECT_EQ(object_after, rng.SaveState())
          << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode)
          << ": different RNG consumption";
      ASSERT_EQ(object_pick.ok(), fleet_pick.ok())
          << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode);
      if (object_pick.ok()) {
        EXPECT_EQ(object_pick.value(), fleet_pick.value())
            << PlacementPolicyName(policy) << " mode " << static_cast<int>(mode);
      }
    }
  }
}

// Runs `ops` random cluster operations on `num_servers` servers, checking
// the mirror, the block maxima and the scans after every one. The first
// `fill_ops` operations are all launches, so a large fleet fills up and the
// scans meet whole blocks that cannot hold the demand.
void RunOpSequence(int param, int num_servers, int fill_ops, int ops) {
  const uint64_t seed = TestSeed() + static_cast<uint64_t>(param) * 7919;
  Rng rng(seed);
  ClusterConfig config;
  config.strategy = param % 2 == 0 ? ReclamationStrategy::kDeflation
                                   : ReclamationStrategy::kPreemptionOnly;
  config.controller.mode = param % 3 == 0 ? DeflationMode::kVmLevel
                                          : DeflationMode::kCascade;
  config.placement = static_cast<PlacementPolicy>(param % 3);
  ClusterManager manager(num_servers, ResourceVector(16.0, 65536.0), config);

  std::vector<VmId> live;
  VmId next_id = 1;
  for (int op = 0; op < ops; ++op) {
    const int64_t roll = op < fill_ops ? 0 : rng.UniformInt(0, 99);
    if (roll < 45) {  // launch (may cascade-deflate or preempt under load)
      const VmId id = next_id++;
      if (manager.LaunchVm(RandomVm(id, rng)).ok()) {
        live.push_back(id);
      }
    } else if (roll < 60 && !live.empty()) {  // complete
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      manager.CompleteVm(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 72 && !live.empty()) {  // explicit deflate
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Server* server = manager.ServerOf(live[pick]);
      if (server != nullptr) {
        Vm* vm = server->FindVm(live[pick]);
        manager.controller(server->id())
            ->DeflateVm(live[pick], vm->deflatable_amount() * rng.Uniform(0.0, 1.0));
      }
    } else if (roll < 80) {  // reinflate one server
      const ServerId target = rng.UniformInt(0, num_servers - 1);
      if (manager.health(target) != ServerHealth::kDown) {
        manager.controller(target)->ReinflateAll();
      }
    } else if (roll < 88) {  // crash (evacuates, re-places, revokes)
      manager.CrashServer(rng.UniformInt(0, num_servers - 1));
    } else if (roll < 96) {  // recover + promote
      const ServerId target = rng.UniformInt(0, num_servers - 1);
      manager.RecoverServer(target);
      manager.MarkHealthy(target);
    } else {  // degrade
      manager.DegradeServer(rng.UniformInt(0, num_servers - 1));
    }
    // Preemptions and crash revocations retire VMs behind our back.
    std::unordered_set<VmId> gone;
    for (const VmId id : manager.TakePreempted()) {
      gone.insert(id);
    }
    if (!gone.empty()) {
      std::erase_if(live, [&gone](VmId id) { return gone.count(id) > 0; });
    }
    std::erase_if(live, [&manager](VmId id) { return manager.FindVm(id) == nullptr; });

    ExpectMirrorExact(manager);
    const std::vector<Server*> servers = manager.servers();
    std::vector<Server*> healthy;
    for (Server* server : servers) {
      if (manager.health(server->id()) == ServerHealth::kHealthy) {
        healthy.push_back(server);
      }
    }
    ExpectScanEquivalent(manager, servers, rng);
    ExpectScanEquivalent(manager, healthy, rng);
    ExpectBlockMaxExact(manager.fleet());
    if (::testing::Test::HasFailure()) {
      FAIL() << "fleet view drifted at op " << op << " (seed " << seed << ", "
             << num_servers << " servers)";
    }
  }
}

class FleetViewPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FleetViewPropertyTest, RandomOpSequenceKeepsMirrorExact) {
  RunOpSequence(GetParam(), /*num_servers=*/5, /*fill_ops=*/0, /*ops=*/300);
}

TEST_P(FleetViewPropertyTest, ThreeBlockFleetKeepsIndexExact) {
  RunOpSequence(GetParam(), /*num_servers=*/150, /*fill_ops=*/450, /*ops=*/900);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FleetViewPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace defl

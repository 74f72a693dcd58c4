#include "src/cluster/placement.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "tests/cluster/placement_reference.h"

namespace defl {
namespace {

std::unique_ptr<Vm> MakeVm(VmId id, double cpus, double mem_mb,
                           VmPriority priority = VmPriority::kLow) {
  VmSpec spec;
  spec.name = "vm" + std::to_string(id);
  spec.size = ResourceVector(cpus, mem_mb);
  spec.priority = priority;
  return std::make_unique<Vm>(id, spec);
}

// Four empty 16-core servers mirrored into a FleetView; the behaviour cases
// place through PlaceVmFleet over all four rows.
class PlacementFixture : public ::testing::Test {
 protected:
  PlacementFixture() : rng_(7) {
    for (int i = 0; i < 4; ++i) {
      servers_.push_back(std::make_unique<Server>(i, ResourceVector(16.0, 65536.0)));
    }
    fleet_.Bind(servers_);
  }

  Result<size_t> Place(const ResourceVector& demand, PlacementPolicy policy,
                       AvailabilityMode mode = AvailabilityMode::kFreePlusDeflatable) {
    return PlaceVmFleet(demand, fleet_, rows_, policy, rng_, mode);
  }

  std::vector<Server*> Servers() {
    std::vector<Server*> out;
    for (auto& s : servers_) {
      out.push_back(s.get());
    }
    return out;
  }

  std::vector<std::unique_ptr<Server>> servers_;
  // Declared after servers_ so it detaches from them before they die.
  FleetView fleet_;
  const std::vector<uint32_t> rows_ = {0, 1, 2, 3};
  Rng rng_;
};

TEST_F(PlacementFixture, FirstFitPicksLowestIndexFeasible) {
  servers_[0]->AddVm(MakeVm(1, 16.0, 65536.0, VmPriority::kHigh));  // full, rigid
  const Result<size_t> placed =
      Place(ResourceVector(4.0, 16384.0), PlacementPolicy::kFirstFit);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 1u);
}

TEST_F(PlacementFixture, BestFitPrefersMatchingShape) {
  // Server 0: lots of CPU, little memory. Server 1: balanced.
  servers_[0]->AddVm(MakeVm(1, 0.5, 49152.0, VmPriority::kHigh));
  // Demand is memory-heavy: best-fit should avoid server 0 whose
  // availability is CPU-skewed.
  const ResourceVector demand(2.0, 32768.0);
  const Result<size_t> placed = Place(demand, PlacementPolicy::kBestFit);
  ASSERT_TRUE(placed.ok());
  const double fit0 = PlacementFitness(demand, servers_[0]->Availability());
  const double fit_chosen =
      PlacementFitness(demand, servers_[placed.value()]->Availability());
  EXPECT_GE(fit_chosen, fit0);
}

TEST_F(PlacementFixture, DeflatableResourcesCountTowardAvailability) {
  for (auto& s : servers_) {
    s->AddVm(MakeVm(100 + s->id(), 16.0, 65536.0, VmPriority::kLow));  // full
  }
  const Result<size_t> with = Place(ResourceVector(8.0, 32768.0),
                                    PlacementPolicy::kFirstFit,
                                    AvailabilityMode::kFreePlusDeflatable);
  EXPECT_TRUE(with.ok());
  const Result<size_t> without = Place(ResourceVector(8.0, 32768.0),
                                       PlacementPolicy::kFirstFit,
                                       AvailabilityMode::kFreeOnly);
  EXPECT_FALSE(without.ok());
}

TEST_F(PlacementFixture, NoFeasibleServerIsAnError) {
  for (auto& s : servers_) {
    s->AddVm(MakeVm(100 + s->id(), 16.0, 65536.0, VmPriority::kHigh));
  }
  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit,
        PlacementPolicy::kTwoChoices}) {
    const Result<size_t> placed = Place(ResourceVector(1.0, 1024.0), policy);
    EXPECT_FALSE(placed.ok()) << PlacementPolicyName(policy);
  }
}

TEST_F(PlacementFixture, TwoChoicesReturnsFeasibleServer) {
  servers_[0]->AddVm(MakeVm(1, 16.0, 65536.0, VmPriority::kHigh));
  servers_[2]->AddVm(MakeVm(2, 16.0, 65536.0, VmPriority::kHigh));
  for (int i = 0; i < 50; ++i) {
    const Result<size_t> placed =
        Place(ResourceVector(8.0, 32768.0), PlacementPolicy::kTwoChoices);
    ASSERT_TRUE(placed.ok());
    EXPECT_TRUE(placed.value() == 1 || placed.value() == 3);
  }
}

TEST_F(PlacementFixture, TwoChoicesPrefersFitterOfTwo) {
  // With all servers feasible, repeated placement should never pick a
  // clearly worse server... statistically: run many trials and check that
  // the fitter servers win more often than uniform.
  servers_[0]->AddVm(MakeVm(1, 14.0, 8192.0, VmPriority::kHigh));  // poor fit
  const ResourceVector demand(2.0, 8192.0);
  int chose_zero = 0;
  for (int i = 0; i < 200; ++i) {
    const Result<size_t> placed = Place(demand, PlacementPolicy::kTwoChoices);
    ASSERT_TRUE(placed.ok());
    if (placed.value() == 0) {
      ++chose_zero;
    }
  }
  // Uniform over 4 servers would give ~50/200; preferring fitness cuts the
  // poor server's share well below its "either slot" probability.
  EXPECT_LT(chose_zero, 30);
}

TEST(PlacementTwoChoicesTest, ProbesAreDistinct) {
  // With exactly two servers, distinct sampling means every attempt probes
  // both, so the fitter feasible server always wins. Sampling with
  // replacement (the old bug) would draw a == b about half the time and
  // return whichever server that was, fitter or not.
  std::vector<std::unique_ptr<Server>> owned;
  owned.push_back(std::make_unique<Server>(0, ResourceVector(16.0, 65536.0)));
  owned.push_back(std::make_unique<Server>(1, ResourceVector(16.0, 65536.0)));
  // Server 0's availability is badly CPU-skewed for a memory-heavy demand.
  VmSpec spec;
  spec.name = "skew";
  spec.size = ResourceVector(1.0, 57344.0);
  spec.priority = VmPriority::kHigh;
  owned[0]->AddVm(std::make_unique<Vm>(100, spec));
  FleetView fleet;
  fleet.Bind(owned);
  const ResourceVector demand(2.0, 8192.0);
  const double fit0 = PlacementFitness(demand, owned[0]->Availability());
  const double fit1 = PlacementFitness(demand, owned[1]->Availability());
  ASSERT_NE(fit0, fit1);
  const size_t fitter = fit0 >= fit1 ? 0u : 1u;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const Result<size_t> placed =
        PlaceVmFleet(demand, fleet, {0, 1}, PlacementPolicy::kTwoChoices, rng);
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(placed.value(), fitter) << "seed " << seed;
  }
}

TEST(PlacementTwoChoicesTest, SingleServerStillPlaces) {
  std::vector<std::unique_ptr<Server>> owned;
  owned.push_back(std::make_unique<Server>(0, ResourceVector(16.0, 65536.0)));
  FleetView fleet;
  fleet.Bind(owned);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Result<size_t> placed = PlaceVmFleet(ResourceVector(2.0, 8192.0), fleet, {0},
                                               PlacementPolicy::kTwoChoices, rng);
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(placed.value(), 0u);
  }
}

TEST(PlacementFitnessTest, AlignedVectorsScoreHighest) {
  const ResourceVector demand(4.0, 16384.0);
  EXPECT_GT(PlacementFitness(demand, ResourceVector(8.0, 32768.0)),
            PlacementFitness(demand, ResourceVector(32.0, 8192.0)));
  EXPECT_DOUBLE_EQ(PlacementFitness(demand, ResourceVector()), 0.0);
}

TEST(PlacementFitnessTest, DegenerateVectorsScoreZeroNotNan) {
  // Zero (or norm-product-underflowing) demand/availability must be defined
  // as fitness 0, never NaN: a NaN would poison the best-fit max and make
  // the scalar and SoA scans disagree on the winner.
  const ResourceVector tiny = ResourceVector::Uniform(1e-200);
  EXPECT_DOUBLE_EQ(PlacementFitness(ResourceVector(), ResourceVector()), 0.0);
  EXPECT_DOUBLE_EQ(PlacementFitness(tiny, tiny), 0.0);
  EXPECT_DOUBLE_EQ(PlacementFitness(tiny, ResourceVector(8.0, 32768.0)), 0.0);
  EXPECT_FALSE(std::isnan(PlacementFitness(ResourceVector(), tiny)));
}

TEST_F(PlacementFixture, FleetScanMatchesObjectScanOnDegenerateDemand) {
  // A zero demand is feasible everywhere with fitness 0 on every server;
  // the fleet scan and the serial reference must fall back to the same
  // lowest-index tie-break.
  servers_[0]->AddVm(MakeVm(1, 16.0, 65536.0, VmPriority::kHigh));  // full, rigid
  const ResourceVector demand;  // zero
  for (const PlacementPolicy policy :
       {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit}) {
    Rng object_rng(3);
    Rng fleet_rng(3);
    const Result<size_t> object_pick = PlaceVm(demand, Servers(), policy, object_rng);
    const Result<size_t> fleet_pick =
        PlaceVmFleet(demand, fleet_, rows_, policy, fleet_rng);
    ASSERT_TRUE(object_pick.ok());
    ASSERT_TRUE(fleet_pick.ok());
    EXPECT_EQ(object_pick.value(), fleet_pick.value());
  }
}

TEST(PlacementPolicyTest, Names) {
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kBestFit), "best-fit");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kFirstFit), "first-fit");
  EXPECT_STREQ(PlacementPolicyName(PlacementPolicy::kTwoChoices), "2-choices");
}

TEST(PlacementEdgeTest, EmptyServerListIsAnError) {
  Rng rng(1);
  FleetView fleet;
  EXPECT_FALSE(
      PlaceVmFleet(ResourceVector(1.0, 1.0), fleet, {}, PlacementPolicy::kBestFit, rng)
          .ok());
}

TEST(PlacementAvailabilityTest, PreemptibleModeCountsWholeLowPriorityVms) {
  std::vector<std::unique_ptr<Server>> owned;
  owned.push_back(std::make_unique<Server>(0, ResourceVector(16.0, 65536.0)));
  VmSpec spec;
  spec.name = "low";
  spec.size = ResourceVector(12.0, 49152.0);
  spec.priority = VmPriority::kLow;
  spec.min_size = spec.size * 0.75;  // barely deflatable
  owned[0]->AddVm(std::make_unique<Vm>(1, spec));
  FleetView fleet;
  fleet.Bind(owned);
  fleet.Refresh();
  for (const AvailabilityMode mode :
       {AvailabilityMode::kFreeOnly, AvailabilityMode::kFreePlusDeflatable,
        AvailabilityMode::kFreePlusPreemptible}) {
    EXPECT_EQ(FleetAvailability(fleet, 0, mode), ServerAvailability(*owned[0], mode))
        << "mode " << static_cast<int>(mode);
  }
  EXPECT_DOUBLE_EQ(
      FleetAvailability(fleet, 0, AvailabilityMode::kFreePlusDeflatable).cpu(), 4.0 + 3.0);
  EXPECT_DOUBLE_EQ(
      FleetAvailability(fleet, 0, AvailabilityMode::kFreePlusPreemptible).cpu(), 4.0 + 12.0);
  EXPECT_DOUBLE_EQ(FleetAvailability(fleet, 0, AvailabilityMode::kFreeOnly).cpu(), 4.0);
}

// 150 empty 16-core servers: three blocks of the block-max index, the last
// one partial (rows 128-149). Every row starts full of rigid high-priority
// VMs; a case frees exactly the rows it needs, so the scans meet whole
// blocks that cannot hold the demand.
class BlockIndexFixture : public ::testing::Test {
 protected:
  static constexpr int kRows = 150;

  BlockIndexFixture() {
    for (int i = 0; i < kRows; ++i) {
      servers_.push_back(std::make_unique<Server>(i, ResourceVector(16.0, 65536.0)));
    }
    fleet_.Bind(servers_);
    for (int i = 0; i < kRows; ++i) {
      Leave(i, 0.0, 0.0);
    }
  }

  // Fills `row` with one rigid VM so that exactly (cpu, mem_mb) stays free.
  void Leave(int row, double cpu, double mem_mb) {
    Server& server = *servers_[static_cast<size_t>(row)];
    if (!server.vms().empty()) {
      server.RemoveVm(server.vms().front()->id());
    }
    server.AddVm(MakeVm(1000 + row, 16.0 - cpu, 65536.0 - mem_mb, VmPriority::kHigh));
  }

  std::vector<Server*> Servers(const std::vector<uint32_t>& rows) {
    std::vector<Server*> out;
    for (const uint32_t row : rows) {
      out.push_back(servers_[row].get());
    }
    return out;
  }

  static std::vector<uint32_t> AllRows() {
    std::vector<uint32_t> rows;
    for (uint32_t i = 0; i < kRows; ++i) {
      rows.push_back(i);
    }
    return rows;
  }

  // PlaceVmFleet over `rows` for `policy` in free-only mode, after checking
  // that it agrees with the serial reference: decision and RNG state.
  Result<size_t> PlaceChecked(const ResourceVector& demand,
                              const std::vector<uint32_t>& rows, PlacementPolicy policy) {
    Rng object_rng(11);
    Rng fleet_rng(11);
    const Result<size_t> object_pick = PlaceVm(demand, Servers(rows), policy, object_rng,
                                               AvailabilityMode::kFreeOnly);
    const Result<size_t> fleet_pick = PlaceVmFleet(demand, fleet_, rows, policy, fleet_rng,
                                                   AvailabilityMode::kFreeOnly);
    EXPECT_EQ(object_rng.SaveState(), fleet_rng.SaveState()) << PlacementPolicyName(policy);
    EXPECT_EQ(object_pick.ok(), fleet_pick.ok()) << PlacementPolicyName(policy);
    if (object_pick.ok() && fleet_pick.ok()) {
      EXPECT_EQ(object_pick.value(), fleet_pick.value()) << PlacementPolicyName(policy);
    }
    return fleet_pick;
  }

  std::vector<std::unique_ptr<Server>> servers_;
  FleetView fleet_;
};

TEST_F(BlockIndexFixture, BlockMaxCoveringDemandWithNoFittingRowIsScanned) {
  // Block 0's maximum is (12 cpu, 48 GiB) -- CPU from row 5, memory from
  // row 9 -- so it covers the demand, yet neither row can hold it. The
  // block must be scanned and rejected row by row; the hit is in block 1.
  Leave(5, 12.0, 1024.0);
  Leave(9, 1.0, 49152.0);
  Leave(100, 10.0, 40960.0);
  const ResourceVector demand(8.0, 32768.0);
  for (const PlacementPolicy policy : {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
                                       PlacementPolicy::kTwoChoices}) {
    const Result<size_t> placed = PlaceChecked(demand, AllRows(), policy);
    ASSERT_TRUE(placed.ok()) << PlacementPolicyName(policy);
    EXPECT_EQ(placed.value(), 100u) << PlacementPolicyName(policy);
  }
  // Once row 9 also has the CPU, the scan stops in block 0.
  Leave(9, 8.0, 49152.0);
  const Result<size_t> placed = PlaceChecked(demand, AllRows(), PlacementPolicy::kFirstFit);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 9u);
}

TEST_F(BlockIndexFixture, OnlyFeasibleRowInLastPartialBlock) {
  Leave(kRows - 1, 4.0, 16384.0);
  const ResourceVector demand(4.0, 16384.0);
  for (const PlacementPolicy policy : {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
                                       PlacementPolicy::kTwoChoices}) {
    const Result<size_t> placed = PlaceChecked(demand, AllRows(), policy);
    ASSERT_TRUE(placed.ok()) << PlacementPolicyName(policy);
    EXPECT_EQ(placed.value(), static_cast<size_t>(kRows - 1)) << PlacementPolicyName(policy);
  }
  // A demand just past that row's room fits nowhere.
  for (const PlacementPolicy policy : {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
                                       PlacementPolicy::kTwoChoices}) {
    EXPECT_FALSE(PlaceChecked(ResourceVector(4.5, 16384.0), AllRows(), policy).ok())
        << PlacementPolicyName(policy);
  }
}

TEST_F(BlockIndexFixture, CandidatesNamingPartOfABlock) {
  // Row 71 is the only feasible row of block 1, but it is not a candidate:
  // the block's maximum covers the demand, so its candidates 70 and 72 are
  // scanned and rejected, and the hit is row 140 at position 4.
  Leave(71, 8.0, 32768.0);
  Leave(140, 8.0, 32768.0);
  const ResourceVector demand(4.0, 16384.0);
  const std::vector<uint32_t> rows = {3, 10, 70, 72, 140};
  for (const PlacementPolicy policy : {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
                                       PlacementPolicy::kTwoChoices}) {
    const Result<size_t> placed = PlaceChecked(demand, rows, policy);
    ASSERT_TRUE(placed.ok()) << PlacementPolicyName(policy);
    EXPECT_EQ(placed.value(), 4u) << PlacementPolicyName(policy);
  }
  // Naming row 71 makes it the first hit, at position 3.
  const Result<size_t> placed =
      PlaceChecked(demand, {3, 10, 70, 71, 72, 140}, PlacementPolicy::kFirstFit);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 3u);
  // Every row but 63: skipping block 0 must land on row 64 at position 63,
  // the first candidate of block 1, not one past it.
  Leave(64, 4.0, 16384.0);
  std::vector<uint32_t> all_but_63 = AllRows();
  all_but_63.erase(all_but_63.begin() + 63);
  const Result<size_t> after_gap =
      PlaceChecked(demand, all_but_63, PlacementPolicy::kFirstFit);
  ASSERT_TRUE(after_gap.ok());
  EXPECT_EQ(after_gap.value(), 63u);
}

TEST_F(BlockIndexFixture, BestFitTieAcrossSkippedBlockKeepsLowestPosition) {
  // Rows 20 and 130 have the same room, hence the same fitness; block 1
  // between them cannot hold the demand and is skipped. The tie goes to
  // the lower position.
  Leave(20, 6.0, 16384.0);
  Leave(130, 6.0, 16384.0);
  Leave(80, 2.0, 65536.0);  // block 1 has memory but not the CPU
  const ResourceVector demand(4.0, 16384.0);
  const Result<size_t> placed = PlaceChecked(demand, AllRows(), PlacementPolicy::kBestFit);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 20u);
  // A strictly fitter row past the skipped block wins: its room has the
  // demand's exact shape.
  Leave(131, 4.0, 16384.0);
  const Result<size_t> fitter = PlaceChecked(demand, AllRows(), PlacementPolicy::kBestFit);
  ASSERT_TRUE(fitter.ok());
  EXPECT_EQ(fitter.value(), 131u);
}

TEST_F(BlockIndexFixture, RowShortByLessThanEpsilonStillFits) {
  // AllLeq forgives a shortfall up to kFeasibilityEps, so the block test
  // must too: row 100 is short of the demand's CPU by half the epsilon.
  Leave(100, 4.0 - kFeasibilityEps / 2, 16384.0);
  ASSERT_LT(servers_[100]->Free().cpu(), 4.0);
  for (const PlacementPolicy policy : {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
                                       PlacementPolicy::kTwoChoices}) {
    const Result<size_t> placed =
        PlaceChecked(ResourceVector(4.0, 16384.0), AllRows(), policy);
    ASSERT_TRUE(placed.ok()) << PlacementPolicyName(policy);
    EXPECT_EQ(placed.value(), 100u) << PlacementPolicyName(policy);
  }
}

TEST_F(BlockIndexFixture, RefreshOfMostRowsAtOnceKeepsBlockMaxExact) {
  // Read every block maximum so that all are up to date, then change half
  // the rows before one Refresh(), which re-reads that many rows by
  // sweeping its dirty bitmap instead of sorting a list.
  fleet_.Refresh();
  for (size_t block = 0; block < fleet_.num_blocks(); ++block) {
    for (const AvailabilityMode mode :
         {AvailabilityMode::kFreeOnly, AvailabilityMode::kFreePlusDeflatable,
          AvailabilityMode::kFreePlusPreemptible}) {
      fleet_.BlockMax(block, mode);
    }
  }
  for (int row = 0; row < kRows; row += 2) {
    Leave(row, 8.0, 32768.0);
  }
  fleet_.Refresh();
  for (size_t block = 0; block < fleet_.num_blocks(); ++block) {
    EXPECT_TRUE(fleet_.BlockMaxConsistent(block)) << "block " << block;
  }
  const Result<size_t> placed =
      PlaceChecked(ResourceVector(8.0, 32768.0), AllRows(), PlacementPolicy::kFirstFit);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 0u);
}

}  // namespace
}  // namespace defl

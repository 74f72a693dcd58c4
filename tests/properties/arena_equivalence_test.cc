// Property test for the allocation-free core (DESIGN.md §14): the pooled
// event slots and retire-reclaim scratch buffers are pure performance
// machinery -- they must be invisible in every observable byte.
// Randomized cluster configurations (server count, load, strategy, policy,
// tick periods drawn from DEFL_FAULT_SEED) are run to completion and must
// export byte-identical telemetry whatever the unused ClusterConfig::threads
// slot holds ({1, 2, 7}), across a mid-run snapshot/restore, and across a
// durable-recovery boundary. The
// snapshot bytes themselves must not depend on warm pool state: a
// fresh run and a restored run snapshotted at the same instant (with very
// different recycled-memory footprints) must serialize identically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "src/cluster/durable_session.h"
#include "src/cluster/sim_session.h"
#include "src/common/rng.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

const int kThreadCounts[] = {1, 2, 7};

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

// One randomized configuration. Periods are drawn from a set that includes a
// non-dyadic value so the drift-free tick formula's rounding path is
// exercised, not just the exact dyadic accumulation.
ClusterSimConfig RandomConfig(Rng& rng) {
  ClusterSimConfig config;
  config.num_servers = static_cast<int>(rng.UniformInt(6, 16));
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = rng.Uniform(0.5, 1.5) * 3600.0;
  config.trace.max_lifetime_s = 1800.0;
  config.trace.seed = rng.NextU64();
  config.trace = WithTargetLoad(config.trace, rng.Uniform(1.0, 2.0),
                                config.num_servers, config.server_capacity);
  config.cluster.strategy = rng.UniformInt(0, 3) == 0
                                ? ReclamationStrategy::kPreemptionOnly
                                : ReclamationStrategy::kDeflation;
  const PlacementPolicy policies[] = {PlacementPolicy::kBestFit,
                                      PlacementPolicy::kFirstFit,
                                      PlacementPolicy::kTwoChoices};
  config.cluster.placement = policies[static_cast<size_t>(rng.UniformInt(0, 2))];
  const double periods[] = {150.0, 300.0, 450.0};
  config.sample_period_s = periods[static_cast<size_t>(rng.UniformInt(0, 2))];
  config.reinflate_period_s = 2.0 * config.sample_period_s;
  config.predictive_holdback = rng.UniformInt(0, 1) == 1;
  return config;
}

std::string Export(const TelemetryContext& telemetry) {
  std::ostringstream os;
  telemetry.metrics().DumpJson(os);
  os << "\n";
  telemetry.trace().DumpJsonl(os);
  return os.str();
}

// `threads` fills the config's unused thread-count slot.
std::string RunUninterrupted(ClusterSimConfig config, int threads = 1) {
  config.cluster.threads = threads;
  TelemetryContext telemetry;
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  if (!session.ok()) {
    return "";
  }
  session.value().Finish();
  return Export(telemetry);
}

TEST(ArenaEquivalenceTest, RandomConfigsAreByteIdenticalAcrossThreadCounts) {
  Rng rng(TestSeed() ^ 0xa4e7aULL);
  for (int trial = 0; trial < 3; ++trial) {
    const ClusterSimConfig config = RandomConfig(rng);
    const std::string reference = RunUninterrupted(config);
    ASSERT_FALSE(reference.empty());
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(reference, RunUninterrupted(config, threads))
          << "trial " << trial << ", threads=" << threads;
    }
  }
}

TEST(ArenaEquivalenceTest, MidRunRestoreIsInvisibleUnderRandomConfigs) {
  Rng rng(TestSeed() ^ 0x5ca7c4ULL);
  for (int trial = 0; trial < 3; ++trial) {
    const ClusterSimConfig config = RandomConfig(rng);
    const std::string reference = RunUninterrupted(config);
    const double kill_at_s = rng.Uniform(0.0, config.trace.duration_s);
    const int threads =
        kThreadCounts[static_cast<size_t>(rng.UniformInt(0, 2))];
    std::string bytes;
    {
      TelemetryContext telemetry;
      ClusterSimConfig run = config;
      run.cluster.threads = threads;
      run.telemetry = &telemetry;
      Result<SimSession> session = SimSession::Open(run);
      ASSERT_TRUE(session.ok()) << session.error();
      session.value().StepUntil(kill_at_s);
      bytes = session.value().SnapshotBytes();
    }
    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored = SimSession::RestoreView(bytes, options);
    ASSERT_TRUE(restored.ok()) << restored.error();
    restored.value().Finish();
    EXPECT_EQ(reference, Export(resumed))
        << "trial " << trial << ": kill at " << kill_at_s << "s, threads "
        << threads;
  }
}

TEST(ArenaEquivalenceTest, SnapshotBytesNeverDependOnWarmArenaState) {
  // A fresh session and a restored one hold very different recycled-memory
  // state at the same simulated instant: the restored session's event-slot
  // pool and sweep scratch were warmed by a different history. Their
  // snapshots at a common later time must still be byte-equal -- nothing
  // pool-shaped may leak into the format.
  Rng rng(TestSeed() ^ 0xa110cULL);
  for (int trial = 0; trial < 2; ++trial) {
    const ClusterSimConfig config = RandomConfig(rng);
    const double early = rng.Uniform(0.1, 0.4) * config.trace.duration_s;
    const double late = rng.Uniform(0.6, 0.9) * config.trace.duration_s;

    ClusterSimConfig fresh_run = config;
    TelemetryContext fresh_telemetry;
    fresh_run.telemetry = &fresh_telemetry;
    Result<SimSession> fresh = SimSession::Open(fresh_run);
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    fresh.value().StepUntil(late);
    const std::string direct = fresh.value().SnapshotBytes();

    std::string early_bytes;
    {
      TelemetryContext telemetry;
      ClusterSimConfig run = config;
      run.telemetry = &telemetry;
      Result<SimSession> session = SimSession::Open(run);
      ASSERT_TRUE(session.ok()) << session.error();
      session.value().StepUntil(early);
      early_bytes = session.value().SnapshotBytes();
    }
    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored = SimSession::RestoreView(early_bytes, options);
    ASSERT_TRUE(restored.ok()) << restored.error();
    restored.value().StepUntil(late);
    EXPECT_EQ(direct, restored.value().SnapshotBytes())
        << "trial " << trial << ": snapshot at " << late
        << "s differs between a fresh run and one restored at " << early << "s";

    // Restore -> immediate re-snapshot is the identity on the bytes, too.
    Result<SimSession> reread = SimSession::RestoreView(direct, {});
    ASSERT_TRUE(reread.ok()) << reread.error();
    EXPECT_EQ(direct, reread.value().SnapshotBytes()) << "trial " << trial;
  }
}

TEST(ArenaEquivalenceTest, DurableRecoveryBoundaryIsInvisible) {
  // Clean handoff across the durability layer: step a durable run partway,
  // drop the process's in-memory state (with its warmed pools),
  // recover from the directory, and finish. The export must match the
  // uninterrupted run bit for bit.
  const std::string dir = testing::TempDir() + "/arena_equivalence_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  Rng rng(TestSeed() ^ 0xd00dULL);
  const ClusterSimConfig config = RandomConfig(rng);
  const std::string reference = RunUninterrupted(config);
  {
    // A real telemetry sink (trace enabled) so checkpoints carry the trace,
    // exactly as the CLI's --durable-dir path does.
    TelemetryContext telemetry;
    ClusterSimConfig run = config;
    run.telemetry = &telemetry;
    DurableSession::Options options;
    options.dir = dir;
    options.checkpoint_every_s = config.sample_period_s * 4.0;
    Result<DurableSession> durable = DurableSession::Create(run, options);
    ASSERT_TRUE(durable.ok()) << durable.error();
    const Result<bool> stepped =
        durable.value().StepUntil(0.5 * config.trace.duration_s);
    ASSERT_TRUE(stepped.ok()) << stepped.error();
  }  // in-memory state (slot pools, scratch) dies here
  TelemetryContext recovered_telemetry;
  DurableSession::Options options;
  options.dir = dir;
  options.telemetry = &recovered_telemetry;
  Result<DurableSession> recovered = DurableSession::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  const Result<ClusterSimResult> result = recovered.value().Finish();
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(reference, Export(recovered_telemetry));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace defl

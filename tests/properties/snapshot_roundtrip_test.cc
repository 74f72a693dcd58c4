// Property test for the SimSession checkpoint/restore contract (DESIGN.md
// §11): killing a run at a RANDOM boundary, restoring the snapshot, and
// finishing must produce the same bytes -- metrics JSON, event-trace JSONL,
// and every result counter -- as the uninterrupted run, for every shipped
// fault plan, and for snapshots that record a thread count (the unused
// ClusterConfig::threads slot older runs set). The kill points are drawn
// from DEFL_FAULT_SEED so CI's seed matrix explores different boundaries
// each leg.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/sim_session.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

#ifndef DEFL_SOURCE_DIR
#error "build must define DEFL_SOURCE_DIR"
#endif

const int kThreadCounts[] = {1, 2, 7};

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

ClusterSimConfig BaseConfig() {
  ClusterSimConfig config;
  config.num_servers = 10;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace.max_lifetime_s = 3600.0;
  config.trace.seed = TestSeed();
  config.trace =
      WithTargetLoad(config.trace, 1.5, config.num_servers, config.server_capacity);
  config.cluster.strategy = ReclamationStrategy::kDeflation;
  config.sample_period_s = 300.0;
  config.reinflate_period_s = 600.0;
  config.predictive_holdback = true;
  return config;
}

std::string Export(const TelemetryContext& telemetry) {
  std::ostringstream os;
  telemetry.metrics().DumpJson(os);
  os << "\n";
  telemetry.trace().DumpJsonl(os);
  return os.str();
}

std::string RunUninterrupted(ClusterSimConfig config) {
  TelemetryContext telemetry;
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().Finish();
  return Export(telemetry);
}

// Runs with `threads` in the config's thread-count slot and a kill at
// `kill_at_s`, restores, and returns the resumed run's full export.
std::string RunKilledAndRestored(ClusterSimConfig config, int threads,
                                 double kill_at_s) {
  config.cluster.threads = threads;
  std::string bytes;
  {
    TelemetryContext telemetry;
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    EXPECT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(kill_at_s);
    bytes = session.value().SnapshotBytes();
  }  // the first process "dies" here
  TelemetryContext resumed;
  SimSession::RestoreOptions options;
  options.telemetry = &resumed;
  Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
  EXPECT_TRUE(restored.ok()) << restored.error();
  if (!restored.ok()) {
    return "";
  }
  restored.value().Finish();
  return Export(resumed);
}

TEST(SnapshotRoundtripTest, RandomKillPointsAreInvisibleAcrossThreadCounts) {
  const ClusterSimConfig config = BaseConfig();
  const std::string reference = RunUninterrupted(config);
  ASSERT_FALSE(reference.empty());
  Rng rng(TestSeed() ^ 0x5eed5eedULL);
  for (const int threads : kThreadCounts) {
    for (int trial = 0; trial < 3; ++trial) {
      const double kill_at_s = rng.Uniform(0.0, config.trace.duration_s);
      EXPECT_EQ(reference, RunKilledAndRestored(config, threads, kill_at_s))
          << "kill at " << kill_at_s << "s, threads " << threads;
    }
  }
}

TEST(SnapshotRoundtripTest, EventBoundaryKillsAreInvisible) {
  // Kill after a random NUMBER OF EVENTS (not a time): snapshots taken
  // between two same-timestamp events must restore exactly too.
  const ClusterSimConfig config = BaseConfig();
  const std::string reference = RunUninterrupted(config);
  Rng rng(TestSeed() ^ 0xb0da7eULL);
  for (int trial = 0; trial < 3; ++trial) {
    const int64_t kill_after = rng.UniformInt(1, 4000);
    std::string bytes;
    {
      TelemetryContext telemetry;
      ClusterSimConfig run = config;
      run.telemetry = &telemetry;
      Result<SimSession> session = SimSession::Open(run);
      ASSERT_TRUE(session.ok()) << session.error();
      session.value().StepEvents(kill_after);
      bytes = session.value().SnapshotBytes();
    }
    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
    ASSERT_TRUE(restored.ok()) << restored.error();
    restored.value().Finish();
    EXPECT_EQ(reference, Export(resumed)) << "kill after " << kill_after
                                          << " events";
  }
}

TEST(SnapshotRoundtripTest, DoubleKillIsInvisible) {
  // Two generations of kill/restore: snapshot, restore, run a while,
  // snapshot again, restore again, finish.
  const ClusterSimConfig config = BaseConfig();
  const std::string reference = RunUninterrupted(config);
  std::string first;
  {
    TelemetryContext telemetry;
    ClusterSimConfig run = config;
    run.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(run);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(1800.0);
    first = session.value().SnapshotBytes();
  }
  std::string second;
  {
    TelemetryContext telemetry;
    SimSession::RestoreOptions options;
    options.telemetry = &telemetry;
    Result<SimSession> restored = SimSession::RestoreBytes(first, options);
    ASSERT_TRUE(restored.ok()) << restored.error();
    restored.value().StepUntil(5400.0);
    second = restored.value().SnapshotBytes();
  }
  TelemetryContext resumed;
  SimSession::RestoreOptions options;
  options.telemetry = &resumed;
  Result<SimSession> restored = SimSession::RestoreBytes(second, options);
  ASSERT_TRUE(restored.ok()) << restored.error();
  restored.value().Finish();
  EXPECT_EQ(reference, Export(resumed));
}

TEST(SnapshotRoundtripTest, SharedBlobServesManyRestoresUnchanged) {
  // The what-if service's contract (DESIGN.md §15): N sessions forked off
  // ONE const blob -- via the zero-copy RestoreView path -- each finish to
  // the uninterrupted output, and the blob's bytes never change.
  const ClusterSimConfig config = BaseConfig();
  const std::string reference = RunUninterrupted(config);
  Rng rng(TestSeed() ^ 0xb10bf00dULL);
  const double kill_at_s = rng.Uniform(0.0, config.trace.duration_s);
  std::string blob;
  {
    TelemetryContext telemetry;
    ClusterSimConfig run = config;
    run.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(run);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(kill_at_s);
    blob = session.value().SnapshotBytes();
  }
  const uint64_t blob_fnv = SnapshotFnv1a64(blob.data(), blob.size());
  for (int restore = 0; restore < 3; ++restore) {
    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored =
        SimSession::RestoreView(std::string_view(blob), options);
    ASSERT_TRUE(restored.ok()) << "restore " << restore << ": "
                               << restored.error();
    restored.value().Finish();
    EXPECT_EQ(reference, Export(resumed))
        << "restore " << restore << " from the shared blob diverged";
    EXPECT_EQ(blob_fnv, SnapshotFnv1a64(blob.data(), blob.size()))
        << "restore " << restore << " wrote through the shared blob";
  }
}

TEST(SnapshotRoundtripTest, FileAndBytesRestorePathsAgree) {
  // Snapshot(path) + Restore(path) and SnapshotBytes() + RestoreBytes()
  // must be the same round trip: the file layer adds framing-free I/O only.
  const ClusterSimConfig config = BaseConfig();
  std::string bytes;
  const std::string path = testing::TempDir() + "/roundtrip_paths.snap";
  {
    TelemetryContext telemetry;
    ClusterSimConfig run = config;
    run.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(run);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(1800.0);
    bytes = session.value().SnapshotBytes();
    const Result<bool> written = session.value().Snapshot(path);
    ASSERT_TRUE(written.ok()) << written.error();
  }
  TelemetryContext from_file_ctx;
  SimSession::RestoreOptions file_options;
  file_options.telemetry = &from_file_ctx;
  Result<SimSession> from_file = SimSession::Restore(path, file_options);
  ASSERT_TRUE(from_file.ok()) << from_file.error();
  from_file.value().Finish();

  TelemetryContext from_bytes_ctx;
  SimSession::RestoreOptions bytes_options;
  bytes_options.telemetry = &from_bytes_ctx;
  Result<SimSession> from_bytes = SimSession::RestoreBytes(bytes, bytes_options);
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.error();
  from_bytes.value().Finish();

  EXPECT_EQ(Export(from_file_ctx), Export(from_bytes_ctx));
}

TEST(SnapshotRoundtripTest, PlacementOverrideValidatedAndApplied) {
  const ClusterSimConfig config = BaseConfig();
  std::string bytes;
  {
    TelemetryContext telemetry;
    ClusterSimConfig run = config;
    run.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(run);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(900.0);
    bytes = session.value().SnapshotBytes();
  }
  TelemetryContext overridden;
  SimSession::RestoreOptions options;
  options.telemetry = &overridden;
  options.placement = static_cast<int>(PlacementPolicy::kFirstFit);
  Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().config().cluster.placement,
            PlacementPolicy::kFirstFit);

  TelemetryContext rejected;
  SimSession::RestoreOptions bad;
  bad.telemetry = &rejected;
  bad.placement = 42;
  Result<SimSession> invalid = SimSession::RestoreBytes(bytes, bad);
  ASSERT_FALSE(invalid.ok());
  EXPECT_NE(invalid.error().find("placement override"), std::string::npos)
      << invalid.error();
}

// Every shipped fault plan: the injector cursors and the health timeline
// must survive the kill exactly.
class ShippedPlanRoundtripTest : public testing::TestWithParam<const char*> {};

TEST_P(ShippedPlanRoundtripTest, KillAndRestoreMatchesUninterrupted) {
  ClusterSimConfig config = BaseConfig();
  const std::string path =
      std::string(DEFL_SOURCE_DIR "/examples/") + GetParam() + ".plan";
  Result<FaultPlan> plan = LoadFaultPlanFile(path);
  ASSERT_TRUE(plan.ok()) << path << ": " << plan.error();
  config.fault_plan = std::move(plan.value());

  const std::string reference = RunUninterrupted(config);
  Rng rng(TestSeed() ^ 0xfa0175ULL);
  for (const int threads : {1, 7}) {
    const double kill_at_s = rng.Uniform(0.0, config.trace.duration_s);
    EXPECT_EQ(reference, RunKilledAndRestored(config, threads, kill_at_s))
        << GetParam() << ": kill at " << kill_at_s << "s, threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, ShippedPlanRoundtripTest,
                         testing::Values("faults_basic", "faults_wire",
                                         "faults_cluster"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace defl

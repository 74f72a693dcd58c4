// SimSession: the steppable simulation API and its checkpoint/restore
// contract (DESIGN.md §11). Stepping must be invisible in the final result
// (a stepped run equals a batch RunClusterSim of the same config), a
// snapshot/restore cycle must be byte-invisible in the telemetry exports,
// and corrupted or truncated snapshots must fail Restore with a descriptive
// error -- never a crash or a half-restored session.
#include "src/cluster/sim_session.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "src/sim/snapshot_io.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

ClusterSimConfig SmallSim() {
  ClusterSimConfig config;
  config.num_servers = 8;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace.max_lifetime_s = 3600.0;
  config.trace.seed = 42;
  config.trace =
      WithTargetLoad(config.trace, 1.4, config.num_servers, config.server_capacity);
  config.cluster.strategy = ReclamationStrategy::kDeflation;
  config.sample_period_s = 300.0;
  config.reinflate_period_s = 600.0;
  return config;
}

// The observable output of a telemetry context: metrics JSON + trace JSONL.
std::string Export(const TelemetryContext& telemetry) {
  std::ostringstream os;
  telemetry.metrics().DumpJson(os);
  os << "\n";
  telemetry.trace().DumpJsonl(os);
  return os.str();
}

std::string UninterruptedExport(const ClusterSimConfig& base) {
  ClusterSimConfig config = base;
  TelemetryContext telemetry;
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().Finish();
  return Export(telemetry);
}

TEST(SimSessionTest, OpenRejectsInvalidConfig) {
  ClusterSimConfig config = SmallSim();
  config.num_servers = 0;
  EXPECT_FALSE(SimSession::Open(config).ok());
  config = SmallSim();
  config.sample_period_s = 0.0;
  EXPECT_FALSE(SimSession::Open(config).ok());
}

TEST(SimSessionTest, SteppedRunEqualsBatchRun) {
  const ClusterSimConfig config = SmallSim();
  const ClusterSimResult batch = RunClusterSim(config);

  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  SimSession& sim = session.value();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0);
  sim.StepUntil(1800.0);
  EXPECT_EQ(sim.now(), 1800.0);
  while (sim.StepEvents(17) > 0) {
  }
  EXPECT_TRUE(sim.done());
  const ClusterSimResult stepped = sim.Finish();

  EXPECT_EQ(batch.counters.launched, stepped.counters.launched);
  EXPECT_EQ(batch.counters.preempted, stepped.counters.preempted);
  EXPECT_EQ(batch.counters.completed, stepped.counters.completed);
  // Exact double equality on purpose: stepping must not even reorder
  // floating-point folds.
  EXPECT_EQ(batch.mean_utilization, stepped.mean_utilization);
  EXPECT_EQ(batch.mean_overcommitment, stepped.mean_overcommitment);
  EXPECT_EQ(batch.low_priority_allocation_quality,
            stepped.low_priority_allocation_quality);
}

TEST(SimSessionTest, InspectReportsLiveState) {
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  SimSession& sim = session.value();
  sim.StepUntil(3600.0);
  const SimInspectView view = sim.Inspect();
  EXPECT_EQ(view.now_s, 3600.0);
  EXPECT_EQ(view.duration_s, 2.0 * 3600.0);
  EXPECT_GT(view.events_executed, 0);
  EXPECT_GT(view.pending_events, 0);
  EXPECT_GT(view.hosted_vms, 0);
  EXPECT_EQ(view.servers.size(), 8u);
  int64_t hosted = 0;
  for (const SimServerView& server : view.servers) {
    hosted += server.vm_count;
    EXPECT_GE(server.nominal_overcommitment, 0.0);
  }
  EXPECT_EQ(hosted, view.hosted_vms);
  EXPECT_EQ(view.counters.launched - view.counters.completed -
                view.counters.preempted - view.counters.crash_preempted,
            view.hosted_vms);
}

TEST(SimSessionTest, SnapshotRestoreIsByteInvisible) {
  const ClusterSimConfig base = SmallSim();
  const std::string uninterrupted = UninterruptedExport(base);

  for (const double kill_at_s : {0.0, 450.0, 3600.0, 7100.0}) {
    ClusterSimConfig config = base;
    TelemetryContext first_half;
    config.telemetry = &first_half;
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(kill_at_s);
    const std::string bytes = session.value().SnapshotBytes();
    session = Error{"killed"};  // drop the live session

    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
    ASSERT_TRUE(restored.ok()) << "kill at " << kill_at_s << "s: "
                               << restored.error();
    EXPECT_EQ(restored.value().now(), kill_at_s);
    restored.value().Finish();
    EXPECT_EQ(uninterrupted, Export(resumed)) << "kill at " << kill_at_s << "s";
  }
}

TEST(SimSessionTest, SnapshotIsThreadCountIndependent) {
  // Runs used to be sharded over ClusterConfig::threads, and snapshots still
  // carry that slot. A session opened with threads = 7 (what a --threads=7
  // run serialized) must snapshot, restore and finish to the same export as
  // the default config.
  ClusterSimConfig config = SmallSim();
  config.cluster.threads = 7;
  std::string bytes;
  {
    TelemetryContext telemetry;  // trace enabled, as in UninterruptedExport
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(3600.0);
    bytes = session.value().SnapshotBytes();
  }
  TelemetryContext telemetry;
  SimSession::RestoreOptions options;
  options.telemetry = &telemetry;
  Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().config().cluster.threads, 7);
  restored.value().Finish();
  EXPECT_EQ(Export(telemetry), UninterruptedExport(SmallSim()));
}

TEST(SimSessionTest, SnapshotFileRoundTripsAndCleansUp) {
  const std::string path = "sim_session_test.snap";
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1200.0);
  const Result<bool> saved = session.value().Snapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.error();

  Result<SimSession> restored = SimSession::Restore(path);
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_EQ(restored.value().now(), 1200.0);
  EXPECT_EQ(restored.value().events_executed(), session.value().events_executed());
  std::remove(path.c_str());
}

TEST(SimSessionTest, RestoreRejectsMissingFile) {
  const Result<SimSession> restored = SimSession::Restore("no_such_file.snap");
  ASSERT_FALSE(restored.ok());
}

TEST(SimSessionTest, RestoreRejectsCorruptedSnapshots) {
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  const std::string bytes = session.value().SnapshotBytes();

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  Result<SimSession> r = SimSession::RestoreBytes(bad_magic);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("magic"), std::string::npos) << r.error();

  // Unsupported future version.
  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  r = SimSession::RestoreBytes(bad_version);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("version"), std::string::npos) << r.error();

  // A flipped payload byte must trip the integrity footer.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 0x5a);
  r = SimSession::RestoreBytes(flipped);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("integrity"), std::string::npos) << r.error();

  // Truncation at a sampling of prefix lengths: always an error, never a
  // crash, never a session.
  for (const size_t keep : {size_t{0}, size_t{4}, size_t{11}, size_t{12},
                            bytes.size() / 3, bytes.size() - 9, bytes.size() - 1}) {
    r = SimSession::RestoreBytes(bytes.substr(0, keep));
    EXPECT_FALSE(r.ok()) << "prefix of " << keep << " bytes restored";
  }

  // Trailing garbage after the footer.
  r = SimSession::RestoreBytes(bytes + "zzz");
  EXPECT_FALSE(r.ok());
}

TEST(SimSessionTest, RestoreRejectsUsedTelemetryContext) {
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  const std::string bytes = session.value().SnapshotBytes();

  // A context that already has metrics registered cannot reproduce the
  // snapshot's registry layout; Restore must refuse rather than mis-import.
  TelemetryContext used;
  used.metrics().Counter("someone/elses/counter");
  SimSession::RestoreOptions options;
  options.telemetry = &used;
  const Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.error().find("mismatch"), std::string::npos)
      << restored.error();
}

}  // namespace
}  // namespace defl

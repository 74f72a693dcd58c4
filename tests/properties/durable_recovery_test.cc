// Property test for the durability layer (DESIGN.md §13): a DurableSession
// killed with REAL SIGKILLs -- at seeded random crash points inside the WAL
// append, the checkpoint protocol, and the atomic rename dance -- and then
// recovered must finish with output byte-identical to an uninterrupted run.
// Kill chains span generations (a recovery can itself be killed). Kill
// points are drawn from DEFL_FAULT_SEED so CI's seed matrix explores
// different schedules each leg.
//
// The killing happens in forked children; the parent stays single-threaded
// (its own sessions are destroyed before any fork), so the test is safe
// under TSan.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/durable_session.h"
#include "src/cluster/sim_session.h"
#include "src/common/atomic_file.h"
#include "src/common/cadence.h"
#include "src/common/crash_point.h"
#include "src/common/rng.h"
#include "src/sim/snapshot_io.h"
#include "src/sim/wal_io.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

// Crash points a generation can die at, covering a torn WAL record, a
// durable-but-unacted command, both halves of the checkpoint protocol, and
// both sides of the atomic rename.
const char* const kCrashPoints[] = {
    "wal-append-torn",    "wal-append-synced",     "ckpt-marker-synced",
    "atomic-tmp-synced",  "atomic-renamed",        "ckpt-snapshot-written",
};

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

// One forked generation: arm a crash point (maybe), create-or-recover the
// durable run, drive it to completion. Exit codes: 0 = finished, SIGKILL =
// died at the armed point (expected), anything else = a real failure.
void GenerationChild(const ClusterSimConfig& config, const std::string& dir,
                     const char* crash_point, int64_t countdown) {
  if (crash_point != nullptr) {
    ArmCrashPointForTest(crash_point, countdown);
  }
  // A real telemetry sink (trace enabled) so checkpoints carry the trace,
  // exactly as the CLI's --durable-dir path does.
  TelemetryContext telemetry;
  DurableSession::Options options;
  options.dir = dir;
  options.checkpoint_every_s = 600.0;
  options.keep_checkpoints = 2;
  Result<DurableSession> durable = Error{"unopened"};
  if (DurableSession::CanRecover(dir)) {
    options.telemetry = &telemetry;
    durable = DurableSession::Recover(options);
  } else {
    ClusterSimConfig fresh = config;
    fresh.telemetry = &telemetry;
    durable = DurableSession::Create(fresh, options);
  }
  if (!durable.ok()) {
    std::fprintf(stderr, "generation: %s\n", durable.error().c_str());
    ::_exit(3);
  }
  const Result<ClusterSimResult> result = durable.value().Finish();
  ::_exit(result.ok() ? 0 : 4);
}

// Drives generations until one finishes; returns how many were SIGKILLed.
// `plan(generation)` yields the crash point (or nullptr) for each generation.
template <typename Plan>
int RunKillChain(const ClusterSimConfig& config, const std::string& dir,
                 Rng& rng, Plan plan, int max_generations = 32) {
  int kills = 0;
  for (int generation = 0; generation < max_generations; ++generation) {
    const char* point = plan(generation);
    const int64_t countdown = rng.UniformInt(1, 6);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ADD_FAILURE() << "fork failed";
      return kills;
    }
    if (pid == 0) {
      GenerationChild(config, dir, point, countdown);
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    if (WIFEXITED(status)) {
      EXPECT_EQ(WEXITSTATUS(status), 0) << "generation " << generation
                                        << " failed (not a SIGKILL)";
      return kills;
    }
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      ADD_FAILURE() << "generation " << generation << " died oddly: status "
                    << status;
      return kills;
    }
    ++kills;
  }
  ADD_FAILURE() << "no generation finished within " << max_generations;
  return kills;
}

// Read-only recovery of the finished run, exported for comparison.
std::string RecoveredExport(const std::string& dir) {
  TelemetryContext telemetry;
  SimSession::RestoreOptions options;
  options.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Recover(dir, options);
  EXPECT_TRUE(session.ok()) << session.error();
  if (!session.ok()) {
    return "";
  }
  session.value().Finish();
  return Export(telemetry);
}

// The uninterrupted run: its snapshot at `t_s` and its finished export.
struct Reference {
  std::string bytes_at_t;
  std::string finished;
};

Reference RunReference(ClusterSimConfig config, double t_s) {
  TelemetryContext telemetry;
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(t_s);
  Reference reference{session.value().SnapshotBytes(), ""};
  session.value().Finish();
  reference.finished = Export(telemetry);
  return reference;
}

// The path of the highest-numbered ckpt-*.snap in `dir`.
std::string NewestCheckpoint(const std::string& dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      newest = std::max(newest, entry.path().string());
    }
  }
  return newest;
}

// Rewrites the run's journal without its last record, the newest
// checkpoint's marker: a WAL whose tail was lost after the snapshot landed.
void DropNewestMarker(const std::string& dir) {
  const std::string path = dir + "/wal.log";
  const Result<WalReadResult> wal = ReadWalFile(path);
  ASSERT_TRUE(wal.ok()) << wal.error();
  const std::vector<WalRecord>& records = wal.value().records;
  ASSERT_EQ(records.back().kind, WalRecordKind::kCheckpoint);
  Result<WalWriter> writer = WalWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.error();
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    ASSERT_TRUE(writer.value().Append(records[i]).ok());
  }
}

// Rewrites the integrity footer over `blob`'s edited body.
void Reseal(std::string& blob) {
  std::string footer;
  AppendLe(footer, SnapshotFnv1a64(blob.data(), blob.size() - 8), 8);
  blob.replace(blob.size() - 8, 8, footer);
}

// Where the placement-policy byte sits in a snapshot of `config`: the
// config section leads the payload, so it is the first byte at which a
// snapshot under another policy differs.
size_t PlacementByteOffset(ClusterSimConfig config) {
  const std::string a = SimSession::Open(config).value().SnapshotBytes();
  config.cluster.placement = config.cluster.placement == PlacementPolicy::kFirstFit
                                 ? PlacementPolicy::kBestFit
                                 : PlacementPolicy::kFirstFit;
  const std::string b = SimSession::Open(config).value().SnapshotBytes();
  return static_cast<size_t>(std::mismatch(a.begin(), a.end(), b.begin()).first -
                             a.begin());
}

class DurableRecoveryTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/durable_recovery_" +
           std::to_string(::getpid()) + "_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DurableSession::Options Options(TelemetryContext* telemetry) const {
    DurableSession::Options options;
    options.dir = dir_;
    options.checkpoint_every_s = 600.0;
    options.telemetry = telemetry;
    return options;
  }

  // A durable run stepped to `t_s` (the horizon: finished), with a
  // checkpoint every 10 minutes and the newest three kept.
  void RunDurableTo(ClusterSimConfig config, double t_s) {
    TelemetryContext telemetry;
    config.telemetry = &telemetry;
    Result<DurableSession> durable = DurableSession::Create(config, Options(nullptr));
    ASSERT_TRUE(durable.ok()) << durable.error();
    if (t_s >= config.trace.duration_s) {
      ASSERT_TRUE(durable.value().Finish().ok());
    } else {
      ASSERT_TRUE(durable.value().StepUntil(t_s).ok());
    }
  }

  // Both recoveries, each into a caller context, skip the damaged newest
  // checkpoint: they restore an older one, replay the journal to the
  // reference instant and finish on the uninterrupted bytes.
  void ExpectBothRecoveriesLandOn(const Reference& reference) {
    {
      TelemetryContext telemetry;
      SimSession::RestoreOptions options;
      options.telemetry = &telemetry;
      Result<SimSession> session = SimSession::Recover(dir_, options);
      ASSERT_TRUE(session.ok()) << session.error();
      EXPECT_EQ(session.value().SnapshotBytes(), reference.bytes_at_t);
      session.value().Finish();
      EXPECT_EQ(Export(telemetry), reference.finished);
    }
    TelemetryContext telemetry;
    Result<DurableSession> durable = DurableSession::Recover(Options(&telemetry));
    ASSERT_TRUE(durable.ok()) << durable.error();
    EXPECT_EQ(durable.value().session().SnapshotBytes(), reference.bytes_at_t);
    ASSERT_TRUE(durable.value().Finish().ok());
    EXPECT_EQ(Export(telemetry), reference.finished);
  }

  std::string dir_;
};

TEST_F(DurableRecoveryTest, SeededKillChainsRecoverByteIdentically) {
  const ClusterSimConfig config = BaseConfig();
  const std::string reference = RunUninterrupted(config);
  ASSERT_FALSE(reference.empty());
  Rng rng(TestSeed() ^ 0xdead5afeULL);
  // Each generation dies at a seeded crash point until three kills landed,
  // then runs clean. Double/triple-kill chains arise by construction.
  int planned_kills = 3;
  const int kills = RunKillChain(config, dir_, rng, [&](int) -> const char* {
    if (planned_kills <= 0) {
      return nullptr;
    }
    --planned_kills;
    return kCrashPoints[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(std::size(kCrashPoints)) - 1))];
  });
  EXPECT_GE(kills, 1) << "no crash point fired; the chain tested nothing";
  EXPECT_EQ(reference, RecoveredExport(dir_));
}

TEST_F(DurableRecoveryTest, KillsDuringRecoveryItselfStillConverge) {
  const ClusterSimConfig config = BaseConfig();
  const std::string reference = RunUninterrupted(config);
  Rng rng(TestSeed() ^ 0x0c0ffee0ULL);
  // Every generation is killed (including the recovery generations) until
  // the chain runs dry at five kills -- recovery must make durable progress
  // each time (auto-checkpoints during replay), not restart from scratch.
  int planned_kills = 5;
  RunKillChain(config, dir_, rng, [&](int) -> const char* {
    if (planned_kills <= 0) {
      return nullptr;
    }
    --planned_kills;
    // Mid-WAL-append and mid-checkpoint are the tender spots during replay.
    return planned_kills % 2 == 0 ? "ckpt-marker-synced" : "wal-append-synced";
  });
  EXPECT_EQ(reference, RecoveredExport(dir_));
}

TEST_F(DurableRecoveryTest, RecoverIsReadOnly) {
  const ClusterSimConfig config = BaseConfig();
  Rng rng(TestSeed() ^ 0x00b5e55edULL);
  RunKillChain(config, dir_, rng, [](int) { return nullptr; });
  // Snapshot the directory contents, recover twice, and verify nothing
  // (names or bytes) changed and both recoveries agree.
  std::ostringstream listing_before;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    listing_before << entry.path().filename().string() << ":"
                   << std::filesystem::file_size(entry.path()) << ";";
  }
  const std::string first = RecoveredExport(dir_);
  const std::string second = RecoveredExport(dir_);
  EXPECT_EQ(first, second);
  std::ostringstream listing_after;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    listing_after << entry.path().filename().string() << ":"
                  << std::filesystem::file_size(entry.path()) << ";";
  }
  EXPECT_EQ(listing_before.str(), listing_after.str());
}

TEST_F(DurableRecoveryTest, CheckpointCadenceIsBoundedBeforeAnyWork) {
  // A cadence that would checkpoint more than kMaxCadenceTicks times over
  // the horizon is rejected before Create touches the disk and before
  // Recover replays the journal (replay checkpoints at every boundary).
  const ClusterSimConfig config = BaseConfig();
  DurableSession::Options options;
  options.dir = dir_;
  options.checkpoint_every_s =
      config.trace.duration_s / (kMaxCadenceTicks + 1);
  const Result<DurableSession> created = DurableSession::Create(config, options);
  ASSERT_FALSE(created.ok());
  EXPECT_NE(created.error().find("checkpoint cadence fires"), std::string::npos)
      << created.error();
  EXPECT_FALSE(std::filesystem::exists(dir_));

  options.checkpoint_every_s = 600.0;
  {
    Result<DurableSession> run = DurableSession::Create(config, options);
    ASSERT_TRUE(run.ok()) << run.error();
    ASSERT_TRUE(run.value().StepUntil(1800.0).ok());
  }
  options.checkpoint_every_s = 1e-9;
  const Result<DurableSession> recovered = DurableSession::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.error().find("checkpoint cadence fires"), std::string::npos)
      << recovered.error();
}

// A replayed trace stretches the horizon to its last arrival: 10^4 h of
// 300 s samples is 120k ticks, past kMaxCadenceTicks. Open and Create take
// such a run, so its snapshot must resume and its directory must recover.
TEST_F(DurableRecoveryTest, LongReplayResumesAndRecovers) {
  ClusterSimConfig config = BaseConfig();
  TraceEvent far;
  far.arrival_s = 1e4 * 3600.0;
  far.lifetime_s = 600.0;
  far.spec.name = "vm-0";
  far.spec.size = ResourceVector(2.0, 2048.0, 10.0, 10.0);
  config.explicit_trace = {far};
  config.trace.duration_s = far.arrival_s + 3600.0;
  ASSERT_GT(config.trace.duration_s / config.sample_period_s, kMaxCadenceTicks);

  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(3600.0);
  const std::string bytes = session.value().SnapshotBytes();
  const Result<SimSession> resumed = SimSession::RestoreView(bytes, {});
  ASSERT_TRUE(resumed.ok()) << resumed.error();
  EXPECT_EQ(resumed.value().SnapshotBytes(), bytes);

  DurableSession::Options options;
  options.dir = dir_;
  options.checkpoint_every_s = 10.0 * 3600.0;
  {
    Result<DurableSession> run = DurableSession::Create(config, options);
    ASSERT_TRUE(run.ok()) << run.error();
    ASSERT_TRUE(run.value().StepUntil(3600.0).ok());
  }
  const Result<DurableSession> recovered = DurableSession::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.error();
  EXPECT_EQ(recovered.value().session().SnapshotBytes(), bytes);
}

TEST_F(DurableRecoveryTest, FlippedByteInTheNewestCheckpointFallsBackToAnOlder) {
  const ClusterSimConfig config = BaseConfig();
  RunDurableTo(config, config.trace.duration_s);
  const std::string newest = NewestCheckpoint(dir_);
  std::string blob = ReadFileToString(newest).value();
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x10);
  ASSERT_TRUE(WriteFileAtomic(newest, blob).ok());
  ExpectBothRecoveriesLandOn(RunReference(config, config.trace.duration_s));
}

// A sound snapshot of the same run, cut 30 minutes past the journal's last
// command: its footer checks, but it does not match its WAL marker.
TEST_F(DurableRecoveryTest, CheckpointOfAnotherInstantFallsBackToAnOlder) {
  const ClusterSimConfig config = BaseConfig();
  RunDurableTo(config, 3600.0);
  const std::string later = RunReference(config, 5400.0).bytes_at_t;
  ASSERT_TRUE(SimSession::Decode(later).ok());
  ASSERT_TRUE(WriteFileAtomic(NewestCheckpoint(dir_), later).ok());
  ExpectBothRecoveriesLandOn(RunReference(config, 3600.0));
}

// A checkpoint that passes its checksum but fails Decode (an out-of-range
// enum byte, resealed like tests/corpus/snapshot_bad_placement.snap) is
// skipped too, even with its marker gone so that only Decode can tell:
// Decode touches no telemetry, so the caller's context is still fresh for
// the older checkpoint.
TEST_F(DurableRecoveryTest, CheckpointThatFailsDecodeFallsBackToAnOlder) {
  const ClusterSimConfig config = BaseConfig();
  RunDurableTo(config, config.trace.duration_s);
  DropNewestMarker(dir_);
  const std::string newest = NewestCheckpoint(dir_);
  std::string blob = ReadFileToString(newest).value();
  blob[PlacementByteOffset(config)] = 9;
  Reseal(blob);
  ASSERT_TRUE(SnapshotReader::OpenView(blob).ok());
  const Result<std::shared_ptr<const SimSession::Image>> decoded = SimSession::Decode(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().find("placement policy byte 9 is out of range"),
            std::string::npos)
      << decoded.error();
  ASSERT_TRUE(WriteFileAtomic(newest, blob).ok());
  ExpectBothRecoveriesLandOn(RunReference(config, config.trace.duration_s));
}

TEST_F(DurableRecoveryTest, DirectoryKilledBeforeGenesisIsNotRecoverable) {
  const ClusterSimConfig config = BaseConfig();
  // Die inside the very first checkpoint's snapshot write: the directory
  // holds a WAL (with a marker) but no usable snapshot file yet.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    GenerationChild(config, dir_, "atomic-tmp-synced", 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  // Nothing was acknowledged, so there is nothing to recover -- the driver
  // must start fresh, which the next generation does.
  EXPECT_FALSE(DurableSession::CanRecover(dir_));
  const std::string reference = RunUninterrupted(config);
  Rng rng(TestSeed());
  RunKillChain(config, dir_, rng, [](int) { return nullptr; });
  EXPECT_EQ(reference, RecoveredExport(dir_));
}

}  // namespace
}  // namespace defl

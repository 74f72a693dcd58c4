// Property test for the what-if service's concurrency contract (DESIGN.md
// §15): a randomized batch of queries answered (a) serially and (b)
// concurrently at several worker counts against the same base snapshot must
// produce bitwise-identical per-query results, and the shared base blob
// must hash identically before and after -- queries are isolated
// copy-on-restore children and never write through the blob, nor through
// the decoded image and arrival trace they share. Runs under the TSan CI
// matrix; query batches are seeded from DEFL_FAULT_SEED so each CI leg
// explores a different batch.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/session_codec.h"
#include "src/cluster/sim_session.h"
#include "src/common/rng.h"
#include "src/service/query.h"
#include "src/service/sweep.h"
#include "src/service/whatif.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

// A mid-run snapshot (half the horizon still ahead), so `run`/`hours=`
// queries genuinely simulate instead of hitting the horizon clamp.
// `interactive` tags part of its generated trace as web VMs.
std::string MidRunSnapshot(bool interactive = false) {
  ClusterSimConfig config;
  config.num_servers = 8;
  config.server_capacity = ResourceVector(16.0, 128.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace.max_lifetime_s = 3600.0;
  config.trace.seed = TestSeed();
  config.trace =
      WithTargetLoad(config.trace, 1.5, config.num_servers, config.server_capacity);
  config.reinflate_period_s = 600.0;
  if (interactive) {
    config.interactive.enabled = true;
    config.interactive.fraction = 0.4;
    config.interactive.control_period_s = 300.0;
  }
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(3600.0);
  return session.value().SnapshotBytes();
}

WhatIfQuery RandomQuery(Rng& rng) {
  WhatIfQuery query;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      query.kind = QueryKind::kPlace;
      query.count = rng.UniformInt(1, 40);
      query.shape = ResourceVector(static_cast<double>(rng.UniformInt(1, 8)),
                                   static_cast<double>(rng.UniformInt(1, 16)) *
                                       1024.0);
      query.priority = rng.Chance(0.3) ? VmPriority::kHigh : VmPriority::kLow;
      query.hours = rng.Chance(0.5) ? rng.Uniform(0.1, 0.5) : 0.0;
      break;
    case 1:
      query.kind = QueryKind::kFail;
      query.fraction = rng.Uniform(0.0, 0.6);
      query.seed = rng.NextU64();
      query.hours = rng.Chance(0.5) ? rng.Uniform(0.1, 0.5) : 0.0;
      break;
    case 2:
      query.kind = QueryKind::kOvercommit;
      query.target = rng.Uniform(1.1, 1.9);
      query.shape = ResourceVector(2.0, 4096.0);
      query.limit = rng.UniformInt(10, 120);
      break;
    default:
      query.kind = QueryKind::kRun;
      query.hours = rng.Uniform(0.1, 1.0);
      break;
  }
  return query;
}

TEST(WhatIfDeterminismTest, ConcurrentBatchesMatchSerialBitwise) {
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const WhatIfService& service = loaded.value();
  const uint64_t blob_fnv_before = service.blob_fnv();

  Rng rng(TestSeed() ^ 0x817a71f5ULL);
  std::vector<WhatIfQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(RandomQuery(rng));
  }

  const std::string serial = service.AnswerBatch(queries, 1);
  ASSERT_FALSE(serial.empty());
  for (const int workers : {2, 7}) {
    EXPECT_EQ(serial, service.AnswerBatch(queries, workers))
        << "workers=" << workers << " changed a query answer";
  }
  // The shared blob is read-only: no query may have written through it.
  EXPECT_EQ(blob_fnv_before,
            SnapshotFnv1a64(service.blob().data(), service.blob().size()));
}

TEST(WhatIfDeterminismTest, RepeatedConcurrentBatchesAreStable) {
  // Two concurrent runs of the same batch on one service instance: the
  // service holds no per-query mutable state, so the reports must match.
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  Rng rng(TestSeed() ^ 0x5eedba7cULL);
  std::vector<WhatIfQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(RandomQuery(rng));
  }
  const std::string first = loaded.value().AnswerBatch(queries, 7);
  EXPECT_EQ(first, loaded.value().AnswerBatch(queries, 7));
}

TEST(WhatIfDeterminismTest, AnswersDependOnlyOnBlobAndQuery) {
  // Two service instances over the same bytes answer identically: nothing
  // about an instance (load order, prior answers) leaks into a result.
  const std::string blob = MidRunSnapshot();
  Result<WhatIfService> a = WhatIfService::Load(blob);
  Result<WhatIfService> b = WhatIfService::Load(blob);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(TestSeed() ^ 0x0b10bULL);
  const WhatIfQuery query = RandomQuery(rng);
  // Warm instance `a` with a different query first.
  (void)a.value().Answer(RandomQuery(rng));
  Result<std::string> from_a = a.value().Answer(query);
  Result<std::string> from_b = b.value().Answer(query);
  ASSERT_TRUE(from_a.ok() && from_b.ok());
  EXPECT_EQ(from_a.value(), from_b.value());
}

// One flipped bit in the body or in the 8-byte integrity footer fails Load:
// no child re-checks the footer after it.
TEST(WhatIfDeterminismTest, CorruptBlobIsRejectedAtLoad) {
  const std::string blob = MidRunSnapshot();
  std::vector<size_t> positions = {blob.size() / 2};
  for (size_t at = blob.size() - 8; at < blob.size(); ++at) {
    positions.push_back(at);
  }
  for (const size_t at : positions) {
    std::string flipped = blob;
    flipped[at] = static_cast<char>(flipped[at] ^ (1 << (at % 8)));
    Result<WhatIfService> loaded = WhatIfService::Load(std::move(flipped));
    ASSERT_FALSE(loaded.ok()) << "byte " << at;
    EXPECT_NE(loaded.error().find("snapshot blob rejected: snapshot integrity check failed"),
              std::string::npos)
        << loaded.error();
  }
}

// A blob that decodes but whose registry layout no fresh child can import:
// Load's probe build rejects it, so no query's answer does.
TEST(WhatIfDeterminismTest, BlobThatCannotBuildIsRejectedAtLoad) {
  std::string blob = MidRunSnapshot();
  const size_t at = blob.find("cluster/utilization");
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(blob.find("cluster/utilization", at + 1), std::string::npos);
  blob[at] = 'C';
  std::string footer;
  AppendLe(footer, SnapshotFnv1a64(blob.data(), blob.size() - 8), 8);
  blob.replace(blob.size() - 8, 8, footer);
  ASSERT_TRUE(SimSession::Decode(blob).ok());
  Result<WhatIfService> loaded = WhatIfService::Load(std::move(blob));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("snapshot blob rejected: metrics layout mismatch"),
            std::string::npos)
      << loaded.error();
}

TEST(WhatIfDeterminismTest, LoadTakesTheBlobDigestFromTheFooter) {
  for (const bool interactive : {false, true}) {
    const std::string blob = MidRunSnapshot(interactive);
    Result<WhatIfService> loaded = WhatIfService::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    EXPECT_EQ(loaded.value().blob_fnv(), SnapshotFnv1a64(blob.data(), blob.size()));
  }
}

// Open, Restore and Load take a snapshot whose own cadence fires more than
// kMaxCadenceTicks times over its horizon. A child bounds its cadences over
// the hours it runs instead: one `run hours=1` child of a 1 ms reinflation
// period would run 3.6M sweeps, so it answers an error naming the field,
// and a sweep of that many hours fails before any cell runs. A query that
// does not step, or steps briefly enough, still answers.
TEST(WhatIfDeterminismTest, ChildBoundsItsCadencesOverTheHoursItRuns) {
  struct Case {
    const char* field;
    void (*set)(ClusterSimConfig&);
  };
  const Case cases[] = {
      {"reinflate_period_s", [](ClusterSimConfig& c) { c.reinflate_period_s = 1e-3; }},
      {"sample_period_s", [](ClusterSimConfig& c) { c.sample_period_s = 0.01; }},
      {"interactive.control_period_s",
       [](ClusterSimConfig& c) {
         c.interactive.enabled = true;
         c.interactive.control_period_s = 0.01;
       }},
  };
  for (const Case& c : cases) {
    ClusterSimConfig config;
    config.num_servers = 4;
    config.trace.duration_s = 24.0 * 3600.0;
    config.trace.seed = TestSeed();
    c.set(config);
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << c.field << ": " << session.error();
    Result<WhatIfService> loaded = WhatIfService::Load(session.value().SnapshotBytes());
    ASSERT_TRUE(loaded.ok()) << c.field << ": " << loaded.error();
    const WhatIfService& service = loaded.value();

    std::vector<WhatIfQuery> queries;
    for (const char* line : {"place count=1 cpu=1", "run hours=1", "run hours=0.01"}) {
      Result<WhatIfQuery> query = ParseQuery(line);
      ASSERT_TRUE(query.ok()) << line << ": " << query.error();
      queries.push_back(query.value());
    }
    std::vector<std::string> lines;
    std::istringstream report(service.AnswerBatch(queries, 1));
    for (std::string line; std::getline(report, line);) {
      lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 4u) << c.field;
    EXPECT_EQ(lines[0].rfind("{\"kind\":\"place\",", 0), 0u) << lines[0];
    EXPECT_EQ(lines[1].rfind(std::string("{\"error\":\"what-if run refused: ") +
                                 c.field + " fires ",
                             0),
              0u)
        << lines[1];
    EXPECT_EQ(lines[2].rfind("{\"kind\":\"run\",\"hours\":0.01,", 0), 0u) << lines[2];

    Result<SweepGrid> grid = ParseSweepGrid("hours = 1\n");
    ASSERT_TRUE(grid.ok()) << grid.error();
    const Result<std::string> swept = SweepOrchestrator(&service).Run(grid.value(), 1);
    ASSERT_FALSE(swept.ok()) << c.field;
    EXPECT_EQ(swept.error().rfind(std::string("sweep refused: ") + c.field + " fires ", 0),
              0u)
        << swept.error();
  }
}

TEST(WhatIfDeterminismTest, PlacementOverrideChangesOnlyFuturePolicy) {
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  TelemetryContext telemetry;
  Result<SimSession> child = loaded.value().RestoreChild(
      &telemetry, static_cast<int>(PlacementPolicy::kTwoChoices));
  ASSERT_TRUE(child.ok()) << child.error();
  EXPECT_EQ(child.value().config().cluster.placement,
            PlacementPolicy::kTwoChoices);

  TelemetryContext telemetry2;
  Result<SimSession> bad = loaded.value().RestoreChild(&telemetry2, 99);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("placement override"), std::string::npos)
      << bad.error();
}

TEST(WhatIfSweepTest, WorkerCountDoesNotChangeSweepReport) {
  Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  SweepGrid grid;
  grid.policies = {PlacementPolicy::kBestFit, PlacementPolicy::kTwoChoices};
  grid.fail_fractions = {0.0, 0.25};
  grid.overcommit_targets = {1.4};
  grid.intensities = {0.5, 1.0};
  grid.hours = 0.5;
  grid.shape = ResourceVector(2.0, 4096.0);
  grid.limit = 60;
  SweepOrchestrator orchestrator(&loaded.value());
  Result<std::string> one = orchestrator.Run(grid, 1);
  ASSERT_TRUE(one.ok()) << one.error();
  for (const int workers : {2, 8}) {
    Result<std::string> many = orchestrator.Run(grid, workers);
    ASSERT_TRUE(many.ok()) << many.error();
    EXPECT_EQ(one.value(), many.value()) << "workers=" << workers;
  }
  // 2 policies x 2 fractions x 1 target x 2 intensities.
  EXPECT_NE(one.value().find("# sweep cells=8 "), std::string::npos)
      << one.value();
}

// Children built off Load's image are the children a cold RestoreView of
// the same blob builds, now and after simulating on; they share the image's
// trace, and only an slo override that re-tags it builds a private one.
TEST(WhatIfSharedTraceTest, ChildEqualsColdRestoreUnderEveryOverride) {
  using SloOverride = SimSession::RestoreOptions::SloOverride;
  SloOverride none;
  SloOverride fraction;
  fraction.active = true;
  fraction.fraction = 0.7;
  SloOverride enable;
  enable.active = true;
  struct Case {
    const char* name;
    int placement;
    SloOverride slo;
  };
  const std::vector<Case> cases = {
      {"no override", -1, none},
      {"placement", static_cast<int>(PlacementPolicy::kTwoChoices), none},
      {"slo fraction=", -1, fraction},
      {"slo enable", -1, enable},
  };
  for (const bool interactive : {false, true}) {
    const std::string blob = MidRunSnapshot(interactive);
    Result<WhatIfService> loaded = WhatIfService::Load(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    TelemetryContext base_telemetry;
    Result<SimSession> base = loaded.value().RestoreChild(&base_telemetry);
    ASSERT_TRUE(base.ok()) << base.error();
    const SimSession::SharedTrace shared = base.value().generated_trace();
    ASSERT_NE(shared.events, nullptr);

    for (const Case& c : cases) {
      const std::string label =
          std::string(c.name) + (interactive ? " on interactive" : " on plain");
      TelemetryContext child_telemetry;
      Result<SimSession> child = loaded.value().RestoreChild(
          &child_telemetry, c.placement, c.slo.active ? &c.slo : nullptr);
      ASSERT_TRUE(child.ok()) << label << ": " << child.error();
      TelemetryContext cold_telemetry;
      SimSession::RestoreOptions cold;
      cold.telemetry = &cold_telemetry;
      cold.placement = c.placement;
      cold.slo = c.slo;
      Result<SimSession> reference = SimSession::RestoreView(blob, cold);
      ASSERT_TRUE(reference.ok()) << label << ": " << reference.error();

      EXPECT_EQ(child.value().SnapshotBytes(), reference.value().SnapshotBytes())
          << label;
      const bool retags = c.slo.fraction >= 0.0 || (c.slo.active && !interactive);
      EXPECT_EQ(child.value().generated_trace().events == shared.events, !retags)
          << label;
      child.value().StepUntil(child.value().now() + 1800.0);
      reference.value().StepUntil(reference.value().now() + 1800.0);
      EXPECT_EQ(child.value().SnapshotBytes(), reference.value().SnapshotBytes())
          << label << ", 30 min on";
    }
  }
}

// Every child builds from Load's one decoded image and shares its trace.
// After a concurrent batch of every query kind, the trace still hashes to
// its checksum and a fresh child still snapshots to the blob itself: no
// query wrote through the image.
TEST(WhatIfSharedTraceTest, ConcurrentBatchLeavesTheSharedTraceIntact) {
  for (const bool interactive : {false, true}) {
    const char* label = interactive ? "interactive" : "plain";
    Result<WhatIfService> loaded = WhatIfService::Load(MidRunSnapshot(interactive));
    ASSERT_TRUE(loaded.ok()) << loaded.error();
    const WhatIfService& service = loaded.value();
    TelemetryContext telemetry;
    Result<SimSession> probe = service.RestoreChild(&telemetry);
    ASSERT_TRUE(probe.ok()) << probe.error();
    const SimSession::SharedTrace trace = probe.value().generated_trace();
    ASSERT_NE(trace.events, nullptr);

    std::vector<WhatIfQuery> queries;
    for (const char* line :
         {"slo fraction=0.9 hours=0.5", "place count=20 cpu=2 mem=4096",
          "slo fraction=0 policy=uniform hours=0.3",
          "place count=5 cpu=4 mem=8192 hours=0.5", "slo hours=0.4",
          "slo fraction=0.2 p99=40 hours=0.2", "fail fraction=0.3 seed=7 hours=0.2",
          "overcommit target=1.6 cpu=2 mem=4096 limit=50", "run hours=0.5"}) {
      Result<WhatIfQuery> query = ParseQuery(line);
      ASSERT_TRUE(query.ok()) << line << ": " << query.error();
      queries.push_back(query.value());
      queries.push_back(query.value());
    }
    const std::string report = service.AnswerBatch(queries, 8);
    EXPECT_EQ(report.find("\"error\""), std::string::npos) << report;
    // Like the blob, the trace Load verified is read-only: it still hashes
    // to the checksum Load recorded.
    EXPECT_EQ(TraceChecksum(*trace.events), trace.fnv) << label;
    EXPECT_EQ(service.blob_fnv(),
              SnapshotFnv1a64(service.blob().data(), service.blob().size()))
        << label;
    TelemetryContext fresh_telemetry;
    Result<SimSession> fresh = service.RestoreChild(&fresh_telemetry);
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    EXPECT_TRUE(fresh.value().SnapshotBytes() == service.blob()) << label;
  }
}

}  // namespace
}  // namespace defl

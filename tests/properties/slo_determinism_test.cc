// Property suite for the interactive-serving scenario (DESIGN.md §16): SLO
// runs must be bitwise-identical whatever the unused ClusterConfig::threads
// slot holds and across mid-run snapshot/restore; the SLO-aware controller must not serve the tail worse
// than the uniform baseline it replaces; and the `slo` what-if override must
// be deterministic, including when it enables interactive serving on a
// snapshot that ran without it.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_sim.h"
#include "src/cluster/sim_session.h"
#include "src/service/whatif.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

// The golden `interactive` scenario at property-test scale: diurnal arrivals
// with a tight SLO and a hot request rate, so violations and controller
// interventions both occur inside the 3-hour horizon.
ClusterSimConfig InteractiveConfig(bool slo_aware) {
  ClusterSimConfig config;
  config.num_servers = 30;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.seed = 42;
  config.trace.duration_s = 3.0 * 3600.0;
  config.trace.max_lifetime_s = 2.0 * 3600.0;
  config.trace.low_priority_fraction = 0.6;
  config.trace =
      WithTargetLoad(config.trace, 1.6, config.num_servers, config.server_capacity);
  config.reinflate_period_s = 600.0;
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.6;
  config.arrivals.diurnal_period_s = 2.0 * 3600.0;
  config.arrivals.seed = 17;
  config.interactive.enabled = true;
  config.interactive.fraction = 0.45;
  config.interactive.slo_p99_ms = 60.0;
  config.interactive.slo_aware = slo_aware;
  config.interactive.control_period_s = 300.0;
  config.interactive.rate_rps_per_cpu = 120.0;
  config.interactive.rate_period_s = 2.0 * 3600.0;
  return config;
}

std::string Dump(TelemetryContext& telemetry) {
  std::ostringstream out;
  telemetry.metrics().DumpJson(out);
  out << "\n";
  telemetry.trace().DumpJsonl(out);
  return out.str();
}

// `threads` fills the config's unused thread-count slot.
std::string RunToBytes(ClusterSimConfig config, int threads = 1) {
  config.cluster.threads = threads;
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  RunClusterSim(config);
  return Dump(telemetry);
}

TEST(SloDeterminismTest, BitwiseIdenticalAcrossThreadCounts) {
  const std::string base = RunToBytes(InteractiveConfig(true));
  ASSERT_FALSE(base.empty());
  for (const int threads : {2, 7}) {
    EXPECT_EQ(base, RunToBytes(InteractiveConfig(true), threads))
        << "SLO run differs with cluster.threads = " << threads;
  }
}

TEST(SloDeterminismTest, SurvivesMidRunSnapshotRestore) {
  const std::string uninterrupted = RunToBytes(InteractiveConfig(true));
  ClusterSimConfig config = InteractiveConfig(true);
  config.cluster.threads = 2;
  std::string bytes;
  {
    TelemetryContext telemetry;
    telemetry.trace().set_enabled(true);
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(config.trace.duration_s / 2.0);
    bytes = session.value().SnapshotBytes();
  }
  TelemetryContext resumed;
  SimSession::RestoreOptions options;
  options.telemetry = &resumed;
  Result<SimSession> restored = SimSession::RestoreView(bytes, options);
  ASSERT_TRUE(restored.ok()) << restored.error();
  const ClusterSimResult result = restored.value().Finish();
  EXPECT_EQ(uninterrupted, Dump(resumed));
  EXPECT_GT(result.interactive_vms, 0);
}

TEST(SloDeterminismTest, SloAwareControllerBeatsUniformBaseline) {
  const ClusterSimResult slo = RunClusterSim(InteractiveConfig(true));
  const ClusterSimResult uniform = RunClusterSim(InteractiveConfig(false));

  // Same trace, same tagging: the policy changes behavior, not population.
  EXPECT_GT(slo.interactive_vms, 0);
  EXPECT_EQ(slo.interactive_vms, uniform.interactive_vms);

  for (const ClusterSimResult* r : {&slo, &uniform}) {
    EXPECT_GE(r->slo_violation_rate, 0.0);
    EXPECT_LE(r->slo_violation_rate, 1.0);
    EXPECT_GE(r->slo_peak_p99_ms, r->slo_mean_p99_ms);
  }
  // The scenario is hot enough that the baseline actually violates, and the
  // controller actually intervenes -- otherwise this test proves nothing.
  EXPECT_GT(uniform.slo_violation_rate, 0.0);
  EXPECT_GT(slo.slo_reinflate_ops, 0);
  EXPECT_GT(slo.slo_victim_deflations, 0);
  EXPECT_EQ(uniform.slo_reinflate_ops, 0);
  EXPECT_EQ(uniform.slo_victim_deflations, 0);
  // The point of the controller: relieve tail-latency pressure on web VMs.
  EXPECT_LE(slo.slo_violation_rate, uniform.slo_violation_rate);
}

// Snapshot a NON-interactive run at its halfway point, then finish it twice
// under an slo override that enables interactive serving. The two finishes
// must agree byte-for-byte (the override is part of the deterministic
// restore, not a side channel), and the override must actually take effect.
TEST(SloDeterminismTest, OverrideEnableOnPlainSnapshotIsDeterministic) {
  ClusterSimConfig config = InteractiveConfig(true);
  config.interactive = InteractiveSloConfig{};  // plain: no interactive mix
  std::string bytes;
  {
    TelemetryContext telemetry;
    telemetry.trace().set_enabled(true);
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(config.trace.duration_s / 2.0);
    bytes = session.value().SnapshotBytes();
  }

  const auto finish_with_override = [&bytes](double fraction) {
    TelemetryContext telemetry;
    telemetry.trace().set_enabled(true);
    SimSession::RestoreOptions options;
    options.telemetry = &telemetry;
    options.slo.active = true;
    options.slo.slo_p99_ms = 60.0;
    options.slo.fraction = fraction;
    options.slo.policy = 1;
    options.slo.control_period_s = 300.0;
    Result<SimSession> restored = SimSession::RestoreView(bytes, options);
    EXPECT_TRUE(restored.ok()) << restored.error();
    ClusterSimResult result;
    std::string out;
    if (restored.ok()) {
      result = restored.value().Finish();
      out = Dump(telemetry);
    }
    return std::make_pair(result, out);
  };

  const auto [first, first_bytes] = finish_with_override(0.45);
  const auto [second, second_bytes] = finish_with_override(0.45);
  EXPECT_EQ(first_bytes, second_bytes);
  EXPECT_GT(first.interactive_vms, 0);
  EXPECT_EQ(first.interactive_vms, second.interactive_vms);

  // A different mix fraction re-tags the generated trace: more interactive
  // VMs at a higher fraction, fewer at zero.
  const auto [heavy, heavy_bytes] = finish_with_override(0.9);
  EXPECT_GT(heavy.interactive_vms, first.interactive_vms);
  const auto [none, none_bytes] = finish_with_override(0.0);
  EXPECT_EQ(none.interactive_vms, 0);
}

TEST(SloDeterminismTest, SloQueryAnswersIdenticalAcrossWorkers) {
  ClusterSimConfig config = InteractiveConfig(true);
  std::string bytes;
  {
    TelemetryContext telemetry;
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().StepUntil(config.trace.duration_s / 2.0);
    bytes = session.value().SnapshotBytes();
  }
  Result<WhatIfService> service = WhatIfService::Load(std::move(bytes));
  ASSERT_TRUE(service.ok()) << service.error();

  std::vector<WhatIfQuery> queries;
  for (const char* line :
       {"slo hours=1", "slo p99=40 policy=uniform hours=1",
        "slo p99=40 policy=slo hours=1", "slo fraction=0.8 hours=1"}) {
    Result<WhatIfQuery> query = ParseQuery(line);
    ASSERT_TRUE(query.ok()) << line << ": " << query.error();
    queries.push_back(query.value());
  }
  const std::string serial = service.value().AnswerBatch(queries, 1);
  EXPECT_EQ(serial, service.value().AnswerBatch(queries, 4));
  EXPECT_EQ(serial, service.value().AnswerBatch(queries, 13));
  // Every answer surfaced a violation-rate field, none errored.
  EXPECT_EQ(serial.find("\"error\""), std::string::npos) << serial;
  size_t seen = 0;
  for (size_t pos = serial.find("\"violation_rate\""); pos != std::string::npos;
       pos = serial.find("\"violation_rate\"", pos + 1)) {
    ++seen;
  }
  EXPECT_EQ(seen, queries.size());
}

}  // namespace
}  // namespace defl

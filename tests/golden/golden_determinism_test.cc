// Golden end-to-end determinism suite: every simulation scenario --
// including each shipped examples/*.plan fault plan -- has its metrics JSON
// and event-trace JSONL hashed and pinned against
// tests/golden/golden_digests.txt, so any change to the simulation's
// observable output (intended or not) shows up in review as a digest diff.
// The same bytes must come out across a mid-run snapshot/restore and when
// the config carries a thread count in ClusterConfig::threads, a slot that
// nothing reads but that older configs and snapshots set.
//
// To regenerate after an intended output change:
//   DEFL_UPDATE_GOLDEN=1 ./golden_determinism_test
// then copy the printed block into tests/golden/golden_digests.txt.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_sim.h"
#include "src/cluster/sim_session.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

#ifndef DEFL_SOURCE_DIR
#error "build must define DEFL_SOURCE_DIR"
#endif

constexpr const char* kDigestFile =
    DEFL_SOURCE_DIR "/tests/golden/golden_digests.txt";

// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms for the
// byte-stream pinning this suite needs (not cryptographic, not required).
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string HexDigest(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// Scenario matrix: the deflation_sim defaults at small scale, one variant
// per placement policy and strategy, plus one per shipped fault plan.
const char* const kScenarios[] = {
    "base",           "first_fit",     "two_choices",    "preemption_only",
    "reinflate",      "predictive",    "diurnal",        "faults_basic",
    "faults_wire",    "faults_cluster", "interactive",   "interactive_uniform",
};

ClusterSimConfig MakeConfig(const std::string& name) {
  ClusterSimConfig config;
  config.num_servers = 40;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.seed = 42;
  config.trace.duration_s = 3.0 * 3600.0;
  config.trace.max_lifetime_s = 2.0 * 3600.0;
  config.trace.low_priority_fraction = 0.6;
  config.trace =
      WithTargetLoad(config.trace, 1.6, config.num_servers, config.server_capacity);

  if (name == "first_fit") {
    config.cluster.placement = PlacementPolicy::kFirstFit;
  } else if (name == "two_choices") {
    config.cluster.placement = PlacementPolicy::kTwoChoices;
  } else if (name == "preemption_only") {
    config.cluster.strategy = ReclamationStrategy::kPreemptionOnly;
  } else if (name == "reinflate") {
    config.reinflate_period_s = 600.0;
  } else if (name == "predictive") {
    config.reinflate_period_s = 600.0;
    config.predictive_holdback = true;
  } else if (name == "diurnal") {
    // Diurnal/bursty arrivals (src/sim/arrival_gen.h): a short period so the
    // 3-hour horizon covers peaks and troughs, with bursts layered on top.
    config.reinflate_period_s = 600.0;
    config.arrivals.enabled = true;
    config.arrivals.diurnal_amplitude = 0.7;
    config.arrivals.diurnal_period_s = 2.0 * 3600.0;
    config.arrivals.burst_rate_per_s = 2.0 / 3600.0;
    config.arrivals.burst_duration_s = 900.0;
    config.arrivals.burst_multiplier = 3.0;
    config.arrivals.seed = 17;
  } else if (name.rfind("interactive", 0) == 0) {
    // Interactive-serving mix (DESIGN.md §16) over diurnal arrivals: a tight
    // SLO plus a high per-CPU request rate so violations (and, for the
    // slo-aware variant, controller interventions) occur within 3 hours.
    // `interactive` runs the SLO-aware controller; `interactive_uniform`
    // measures the same workload under the uniform baseline.
    config.reinflate_period_s = 600.0;
    config.arrivals.enabled = true;
    config.arrivals.diurnal_amplitude = 0.6;
    config.arrivals.diurnal_period_s = 2.0 * 3600.0;
    config.arrivals.seed = 17;
    config.interactive.enabled = true;
    config.interactive.fraction = 0.45;
    config.interactive.slo_p99_ms = 60.0;
    config.interactive.slo_aware = (name == "interactive");
    config.interactive.control_period_s = 300.0;
    config.interactive.rate_rps_per_cpu = 120.0;
    config.interactive.rate_period_s = 2.0 * 3600.0;
  } else if (name.rfind("faults_", 0) == 0) {
    const std::string path =
        std::string(DEFL_SOURCE_DIR "/examples/") + name + ".plan";
    Result<FaultPlan> plan = LoadFaultPlanFile(path);
    EXPECT_TRUE(plan.ok()) << path << ": " << plan.error();
    if (plan.ok()) {
      config.fault_plan = std::move(plan.value());
    }
    config.reinflate_period_s = 600.0;
  }
  return config;
}

// Runs the scenario with `threads` in the config's unused thread-count slot
// and returns the full observable output: metrics JSON, then the event-trace
// JSONL.
std::string RunScenario(const std::string& name, int threads = 1) {
  ClusterSimConfig config = MakeConfig(name);
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

// Runs the scenario to its halfway point, snapshots, drops the session (as
// if the process were killed), restores into a FRESH telemetry context, and
// finishes. Returns the resumed run's output.
std::string RunScenarioWithSnapshot(const std::string& name, int threads) {
  ClusterSimConfig config = MakeConfig(name);
  config.cluster.threads = threads;
  std::string bytes;
  {
    TelemetryContext telemetry;
    telemetry.trace().set_enabled(true);
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    EXPECT_TRUE(session.ok()) << session.error();
    if (!session.ok()) {
      return "";
    }
    session.value().StepUntil(config.trace.duration_s / 2.0);
    bytes = session.value().SnapshotBytes();
  }
  TelemetryContext resumed;
  SimSession::RestoreOptions options;
  options.telemetry = &resumed;
  Result<SimSession> restored = SimSession::RestoreBytes(bytes, options);
  EXPECT_TRUE(restored.ok()) << restored.error();
  if (!restored.ok()) {
    return "";
  }
  restored.value().Finish();
  std::ostringstream out;
  resumed.metrics().DumpJson(out);
  out << "\n";
  resumed.trace().DumpJsonl(out);
  return out.str();
}

std::map<std::string, std::string> LoadDigests() {
  std::map<std::string, std::string> digests;
  std::ifstream in(kDigestFile);
  std::string name;
  std::string digest;
  while (in >> name >> digest) {
    digests[name] = digest;
  }
  return digests;
}

class GoldenDeterminismTest : public testing::TestWithParam<const char*> {};

TEST_P(GoldenDeterminismTest, ThreadCountDoesNotChangeOutput) {
  // A config written for an 8-thread run must replay the default bytes.
  const std::string name = GetParam();
  const std::string one = RunScenario(name);
  ASSERT_EQ(one, RunScenario(name, 8))
      << "scenario " << name << ": cluster.threads = 8 changed the output";
  EXPECT_FALSE(one.empty());
}

TEST_P(GoldenDeterminismTest, MatchesCheckedInDigest) {
  const std::string name = GetParam();
  const std::string digest = HexDigest(Fnv1a64(RunScenario(name)));
  if (std::getenv("DEFL_UPDATE_GOLDEN") != nullptr) {
    // Regeneration mode: print the line to paste into the digest file.
    std::printf("GOLDEN %s %s\n", name.c_str(), digest.c_str());
    GTEST_SKIP() << "DEFL_UPDATE_GOLDEN set; printed new digest";
  }
  const std::map<std::string, std::string> digests = LoadDigests();
  const auto it = digests.find(name);
  ASSERT_NE(it, digests.end())
      << "no digest for scenario '" << name << "' in " << kDigestFile
      << "; regenerate with DEFL_UPDATE_GOLDEN=1";
  EXPECT_EQ(it->second, digest)
      << "scenario " << name << " output changed; if intended, regenerate "
      << kDigestFile << " with DEFL_UPDATE_GOLDEN=1";
}

TEST_P(GoldenDeterminismTest, SnapshotMidRunDoesNotChangeOutput) {
  // Kill-at-halfway + restore must be byte-invisible against the same
  // uninterrupted output the digest file pins, also for a snapshot that
  // records an 8-thread run.
  const std::string name = GetParam();
  const std::string uninterrupted = RunScenario(name);
  ASSERT_FALSE(uninterrupted.empty());
  EXPECT_EQ(uninterrupted, RunScenarioWithSnapshot(name, 1))
      << "scenario " << name << ": snapshot/restore changed the output";
  EXPECT_EQ(uninterrupted, RunScenarioWithSnapshot(name, 8))
      << "scenario " << name << ": snapshot recording threads 8";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenDeterminismTest,
                         testing::ValuesIn(kScenarios),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace defl

// FaultPlan parsing/encoding and FaultInjector determinism: the whole value
// of the subsystem is that a (plan, seed) pair names one exact failure
// schedule, so the round-trip and the sampling streams are pinned down here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

TEST(FaultPlanParseTest, ParsesHeaderAndRules) {
  const std::string text =
      "# comment\n"
      "faultplan/1 seed=99\n"
      "rule kind=unplug-partial p=0.25 magnitude=0.6\n"
      "\n"
      "rule kind=server-crash server=3 at=7200\n"
      "rule kind=agent-unresponsive vm=5 p=0.5 start=10 end=20 max=4\n";
  const Result<FaultPlan> parsed = ParseFaultPlan(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const FaultPlan& plan = parsed.value();
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_EQ(plan.rules.size(), 3u);

  EXPECT_EQ(plan.rules[0].kind, FaultKind::kUnplugPartial);
  EXPECT_EQ(plan.rules[0].vm, -1);
  EXPECT_EQ(plan.rules[0].server, -1);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.25);
  EXPECT_DOUBLE_EQ(plan.rules[0].magnitude, 0.6);

  EXPECT_EQ(plan.rules[1].kind, FaultKind::kServerCrash);
  EXPECT_EQ(plan.rules[1].server, 3);
  // at= pins the window to one instant.
  EXPECT_DOUBLE_EQ(plan.rules[1].start_s, 7200.0);
  EXPECT_DOUBLE_EQ(plan.rules[1].end_s, 7200.0);

  EXPECT_EQ(plan.rules[2].kind, FaultKind::kAgentUnresponsive);
  EXPECT_EQ(plan.rules[2].vm, 5);
  EXPECT_DOUBLE_EQ(plan.rules[2].start_s, 10.0);
  EXPECT_DOUBLE_EQ(plan.rules[2].end_s, 20.0);
  EXPECT_EQ(plan.rules[2].max_count, 4);
}

// The file loader reads through ReadFileToString: a written plan loads back
// to the same rules, and a missing file is an error naming its path.
TEST(FaultPlanParseTest, LoadsAPlanFileAndNamesAMissingOne) {
  const std::string text =
      "faultplan/1 seed=5\nrule kind=unplug-partial p=0.5 magnitude=0.4\n";
  const std::string path = ::testing::TempDir() + "/fault_plan_test.plan";
  ASSERT_TRUE(WriteFileAtomic(path, text).ok());
  const Result<FaultPlan> loaded = LoadFaultPlanFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(EncodeFaultPlan(loaded.value()),
            EncodeFaultPlan(ParseFaultPlan(text).value()));
  const std::string missing = ::testing::TempDir() + "/no_such_fault_plan.plan";
  const Result<FaultPlan> absent = LoadFaultPlanFile(missing);
  ASSERT_FALSE(absent.ok());
  EXPECT_NE(absent.error().find(missing), std::string::npos) << absent.error();
}

TEST(FaultPlanParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFaultPlan("").ok());
  EXPECT_FALSE(ParseFaultPlan("rule kind=wire-drop\n").ok());  // no header
  EXPECT_FALSE(ParseFaultPlan("faultplan/2 seed=1\n").ok());   // bad version
  const std::string header = "faultplan/1 seed=1\n";
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=bogus\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop frequency=2\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop p=1.5\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop p=nan\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop start=0 end=inf\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=agent-slow magnitude=-inf\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=server-crash at=1e999\n").ok());
  EXPECT_FALSE(ParseFaultPlan("faultplan/1 seed=inf\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=agent-slow magnitude=-1\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop start=5 end=1\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop vm=1.5\n").ok());
}

// Every structural rejection names the offending line, so a typo in a
// 50-rule plan is a one-line fix, not a hunt.
TEST(FaultPlanParseTest, RejectsOutOfRangeSitesAndBudgets) {
  const std::string header = "faultplan/1 seed=1\n";
  const auto error_of = [&](const std::string& rule) {
    const Result<FaultPlan> parsed = ParseFaultPlan(header + rule);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << rule;
    return parsed.ok() ? std::string() : parsed.error();
  };
  EXPECT_NE(error_of("rule kind=wire-drop vm=-2\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(error_of("rule kind=wire-drop server=-7\n").find("server"),
            std::string::npos);
  EXPECT_NE(error_of("rule kind=wire-drop max=0\n").find("max"),
            std::string::npos);
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop max=-3\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop start=-5\n").ok());
  // Server events target servers; a vm= scope cannot mean anything.
  EXPECT_NE(error_of("rule kind=server-crash vm=3 at=100\n").find("vm="),
            std::string::npos);
}

TEST(FaultPlanParseTest, RejectsZeroDurationWindowsForMechanismFaults) {
  const std::string header = "faultplan/1 seed=1\n";
  // at= pins start == end: meaningful for scheduled server events, a
  // never-firing window for probabilistic mechanism faults.
  EXPECT_TRUE(ParseFaultPlan(header + "rule kind=server-crash server=1 at=60\n").ok());
  EXPECT_FALSE(ParseFaultPlan(header + "rule kind=wire-drop at=60\n").ok());
  EXPECT_FALSE(
      ParseFaultPlan(header + "rule kind=agent-slow start=60 end=60\n").ok());
}

TEST(FaultPlanParseTest, RejectsConflictingRulesWithBothLineNumbers) {
  const std::string header = "faultplan/1 seed=1\n";
  // Same kind, overlapping windows, intersecting site scopes (wildcard vm
  // intersects vm=3): the two p= values would silently compound.
  const Result<FaultPlan> windowed = ParseFaultPlan(
      header +
      "rule kind=wire-drop p=0.2 start=0 end=100\n"
      "rule kind=wire-drop p=0.1 vm=3 start=50 end=150\n");
  ASSERT_FALSE(windowed.ok());
  EXPECT_NE(windowed.error().find("line 3"), std::string::npos);
  EXPECT_NE(windowed.error().find("line 2"), std::string::npos);

  // Duplicate scheduled server event at the same instant.
  const Result<FaultPlan> scheduled = ParseFaultPlan(
      header +
      "rule kind=server-crash server=4 at=7200\n"
      "rule kind=server-crash at=7200\n");
  ASSERT_FALSE(scheduled.ok());
  EXPECT_NE(scheduled.error().find("line 2"), std::string::npos);

  // Disjoint windows, disjoint sites, or different kinds are all fine.
  EXPECT_TRUE(ParseFaultPlan(header +
                             "rule kind=wire-drop p=0.2 start=0 end=100\n"
                             "rule kind=wire-drop p=0.1 start=101 end=200\n")
                  .ok());
  EXPECT_TRUE(ParseFaultPlan(header +
                             "rule kind=wire-drop p=0.2 vm=1\n"
                             "rule kind=wire-drop p=0.1 vm=2\n")
                  .ok());
  EXPECT_TRUE(ParseFaultPlan(header +
                             "rule kind=server-crash server=4 at=7200\n"
                             "rule kind=server-crash server=4 at=9000\n"
                             "rule kind=server-recover server=4 at=8000\n")
                  .ok());
}

TEST(FaultPlanParseTest, EncodeParseRoundTrips) {
  FaultPlan plan;
  plan.seed = 12345;
  FaultRule rule;
  rule.kind = FaultKind::kAgentSlow;
  rule.vm = 7;
  rule.probability = 0.125;
  rule.magnitude = 2.5;
  rule.start_s = 100.0;
  rule.end_s = 200.0;
  rule.max_count = 3;
  plan.rules.push_back(rule);
  rule = FaultRule();
  rule.kind = FaultKind::kServerRecover;
  rule.server = 2;
  rule.start_s = rule.end_s = 3600.0;
  plan.rules.push_back(rule);

  const std::string encoded = EncodeFaultPlan(plan);
  const Result<FaultPlan> reparsed = ParseFaultPlan(encoded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  EXPECT_EQ(EncodeFaultPlan(reparsed.value()), encoded);
  EXPECT_EQ(reparsed.value().seed, plan.seed);
  ASSERT_EQ(reparsed.value().rules.size(), plan.rules.size());
  EXPECT_EQ(reparsed.value().rules[0].max_count, 3);
  EXPECT_DOUBLE_EQ(reparsed.value().rules[0].magnitude, 2.5);
}

FaultPlan OneRulePlan(FaultKind kind, double p, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule rule;
  rule.kind = kind;
  rule.probability = p;
  plan.rules.push_back(rule);
  return plan;
}

TEST(FaultInjectorTest, SameSeedSameDecisionSequence) {
  const FaultPlan plan = OneRulePlan(FaultKind::kUnplugPartial, 0.5, 42);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    const FaultDecision da = a.Sample(FaultKind::kUnplugPartial, 1, -1);
    const FaultDecision db = b.Sample(FaultKind::kUnplugPartial, 1, -1);
    EXPECT_EQ(da.fired, db.fired);
    EXPECT_DOUBLE_EQ(da.roll, db.roll);
  }
  EXPECT_EQ(a.injected(FaultKind::kUnplugPartial),
            b.injected(FaultKind::kUnplugPartial));
  EXPECT_GT(a.total_injected(), 0);
  EXPECT_LT(a.total_injected(), 200);
}

TEST(FaultInjectorTest, SitesHaveIndependentStreams) {
  // Interleaving extra samples at one site must not perturb another site's
  // stream -- this is what makes runs replayable even when the number of
  // injection points differs between layers.
  const FaultPlan plan = OneRulePlan(FaultKind::kUnplugPartial, 0.5, 7);
  FaultInjector plain(plan);
  FaultInjector noisy(plan);
  std::vector<bool> expected;
  for (int i = 0; i < 100; ++i) {
    expected.push_back(plain.Sample(FaultKind::kUnplugPartial, 1, -1).fired);
  }
  for (int i = 0; i < 100; ++i) {
    noisy.Sample(FaultKind::kUnplugPartial, 2, -1);  // other VM's stream
    noisy.Sample(FaultKind::kUnplugPartial, 2, -1);
    EXPECT_EQ(noisy.Sample(FaultKind::kUnplugPartial, 1, -1).fired, expected[i]);
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  FaultInjector a(OneRulePlan(FaultKind::kWireDrop, 0.5, 1));
  FaultInjector b(OneRulePlan(FaultKind::kWireDrop, 0.5, 2));
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (a.Sample(FaultKind::kWireDrop, 1, -1).fired !=
        b.Sample(FaultKind::kWireDrop, 1, -1).fired) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, RuleScopeAndBudget) {
  FaultPlan plan;
  plan.seed = 3;
  FaultRule rule;
  rule.kind = FaultKind::kAgentUnresponsive;
  rule.vm = 4;
  rule.probability = 1.0;
  rule.max_count = 2;
  plan.rules.push_back(rule);
  FaultInjector injector(plan);
  // Other VMs never match.
  EXPECT_FALSE(injector.Sample(FaultKind::kAgentUnresponsive, 5, -1).fired);
  // The scoped VM fires exactly max_count times.
  EXPECT_TRUE(injector.Sample(FaultKind::kAgentUnresponsive, 4, -1).fired);
  EXPECT_TRUE(injector.Sample(FaultKind::kAgentUnresponsive, 4, -1).fired);
  EXPECT_FALSE(injector.Sample(FaultKind::kAgentUnresponsive, 4, -1).fired);
  EXPECT_EQ(injector.injected(FaultKind::kAgentUnresponsive), 2);
}

TEST(FaultInjectorTest, TimeWindowFollowsTelemetryClock) {
  FaultPlan plan;
  plan.seed = 5;
  FaultRule rule;
  rule.kind = FaultKind::kHvLatencySpike;
  rule.probability = 1.0;
  rule.start_s = 10.0;
  rule.end_s = 20.0;
  plan.rules.push_back(rule);

  FaultInjector injector(plan);
  TelemetryContext telemetry;
  double now = 0.0;
  TelemetryClockScope clock(&telemetry, [&now] { return now; });
  injector.AttachTelemetry(&telemetry);

  EXPECT_FALSE(injector.Sample(FaultKind::kHvLatencySpike, 1, -1).fired);
  now = 15.0;
  EXPECT_TRUE(injector.Sample(FaultKind::kHvLatencySpike, 1, -1).fired);
  now = 25.0;
  EXPECT_FALSE(injector.Sample(FaultKind::kHvLatencySpike, 1, -1).fired);
}

TEST(FaultInjectorTest, ServerEventsExpandAndSort) {
  FaultPlan plan;
  plan.seed = 1;
  FaultRule crash;
  crash.kind = FaultKind::kServerCrash;
  crash.server = -1;  // every server
  crash.start_s = crash.end_s = 500.0;
  plan.rules.push_back(crash);
  FaultRule recover;
  recover.kind = FaultKind::kServerRecover;
  recover.server = 1;
  recover.start_s = recover.end_s = 100.0;
  plan.rules.push_back(recover);
  // Non-server rules are not events.
  plan.rules.push_back(OneRulePlan(FaultKind::kWireDrop, 1.0, 0).rules[0]);

  FaultInjector injector(plan);
  const std::vector<FaultInjector::ServerEvent> events = injector.ServerEventsFor(3);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, FaultKind::kServerRecover);
  EXPECT_DOUBLE_EQ(events[0].time_s, 100.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i + 1)].kind, FaultKind::kServerCrash);
    EXPECT_EQ(events[static_cast<size_t>(i + 1)].server, i);
  }
}

TEST(FaultInjectorTest, TelemetryCountsInjections) {
  TelemetryContext telemetry;
  FaultInjector injector(OneRulePlan(FaultKind::kWireCorrupt, 1.0, 9));
  injector.AttachTelemetry(&telemetry);
  injector.Sample(FaultKind::kWireCorrupt, 1, -1);
  injector.Sample(FaultKind::kWireCorrupt, 1, -1);
  EXPECT_EQ(telemetry.metrics().CounterValue("faults/injected/wire-corrupt"), 2);
}

}  // namespace
}  // namespace defl

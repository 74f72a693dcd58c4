// Self-tests of the benchmark's own measurement pieces: the percentile rule,
// event classification by counter delta, digest stability, and the fsync
// timer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_core.h"
#include "src/cluster/sim_session.h"
#include "src/service/query.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesMustLieBeyond) {
  EXPECT_TRUE(PercentileReportable(100, 90.0));
  EXPECT_FALSE(PercentileReportable(99, 90.0));
  EXPECT_TRUE(PercentileReportable(1000, 99.0));
  EXPECT_FALSE(PercentileReportable(999, 99.0));
  EXPECT_TRUE(PercentileReportable(20, 50.0));
  EXPECT_FALSE(PercentileReportable(19, 50.0));
  EXPECT_FALSE(PercentileReportable(0, 50.0));
}

TEST(PercentileRule, HighestReportable) {
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(999), 90.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
  EXPECT_EQ(HighestReportablePercentile(100000), 99.99);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 90.0), 90.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(EventClassification, CounterDeltas) {
  defl::ClusterCounters before;
  defl::ClusterCounters after = before;
  EXPECT_EQ(ClassifyEvent(before, after), EventKind::kOther);
  after.launched = 1;
  EXPECT_EQ(ClassifyEvent(before, after), EventKind::kArrivalFit);
  after.deflation_ops = 1;
  EXPECT_EQ(ClassifyEvent(before, after), EventKind::kArrivalDeflate);
  after.preempted = 1;
  EXPECT_EQ(ClassifyEvent(before, after), EventKind::kArrivalPreempt);
  after = before;
  after.rejected = 1;
  EXPECT_EQ(ClassifyEvent(before, after), EventKind::kArrivalReject);
  after = before;
  after.completed = 1;
  EXPECT_EQ(ClassifyEvent(before, after), EventKind::kCompletion);
}

defl::TraceEvent Arrival(double at, double lifetime, double cpu, defl::VmPriority prio,
                         bool firm_minimum) {
  defl::TraceEvent e;
  e.arrival_s = at;
  e.lifetime_s = lifetime;
  e.spec.name = "vm";
  e.spec.size = defl::ResourceVector(cpu, 4096.0, 10.0, 10.0);
  e.spec.priority = prio;
  if (firm_minimum) {
    e.spec.min_size = e.spec.size;
  }
  return e;
}

// One 4-core server. Three deflatable 2-core VMs (the third forces a
// deflation) finish by t=130; then two firm low-priority VMs fill the
// server, a high-priority VM preempts one, and a last low-priority VM finds
// nothing to reclaim.
EventSamples TinySessionEvents() {
  using defl::VmPriority;
  defl::ClusterSimConfig config;
  config.num_servers = 1;
  config.server_capacity = defl::ResourceVector(4.0, 64.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 3000.0;
  config.explicit_trace = {
      Arrival(10, 100, 2, VmPriority::kLow, false),
      Arrival(20, 100, 2, VmPriority::kLow, false),
      Arrival(30, 100, 2, VmPriority::kLow, false),
      Arrival(200, 1000, 2, VmPriority::kLow, true),
      Arrival(210, 1000, 2, VmPriority::kLow, true),
      Arrival(220, 1000, 2, VmPriority::kHigh, false),
      Arrival(230, 1000, 1, VmPriority::kLow, false),
  };
  defl::Result<defl::SimSession> session = defl::SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  EventSamples samples = ClassifyAllEvents(session.value());
  const defl::ClusterCounters counters = session.value().manager().counters();
  EXPECT_EQ(counters.completed, 5);
  EXPECT_EQ(counters.preempted, 1);
  return samples;
}

size_t Count(const EventSamples& samples, EventKind kind) {
  return samples[static_cast<size_t>(kind)].size();
}

TEST(EventClassification, TinySessionWithKnownOutcomes) {
  const EventSamples samples = TinySessionEvents();
  EXPECT_EQ(Count(samples, EventKind::kArrivalFit), 4u);
  EXPECT_EQ(Count(samples, EventKind::kArrivalDeflate), 1u);
  EXPECT_EQ(Count(samples, EventKind::kArrivalPreempt), 1u);
  EXPECT_EQ(Count(samples, EventKind::kArrivalReject), 1u);
  EXPECT_EQ(Count(samples, EventKind::kCompletion), 5u);
  EXPECT_GT(Count(samples, EventKind::kOther), 0u);
}

const double* Find(const LayerMetrics& m, const std::string& name) {
  for (const auto& [key, value] : m.values) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

bool Unreportable(const LayerMetrics& m, const std::string& name) {
  return std::find(m.unreportable.begin(), m.unreportable.end(), name) !=
         m.unreportable.end();
}

// A sparse event kind keeps its count and total but publishes no
// percentile; a kind with 1000 samples publishes its p99.
TEST(PercentileRule, SparseEventKindsPublishNoPercentiles) {
  EventSamples samples = TinySessionEvents();
  auto& fit = samples[static_cast<size_t>(EventKind::kArrivalFit)];
  fit.clear();
  for (int i = 1; i <= 1000; ++i) {
    fit.push_back(i);
  }
  LayerMetrics m;
  AddEventKindMetrics(samples, 2, m);

  const double* count = Find(m, "cluster.event.arrival_deflate.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(*count, 0.5);
  EXPECT_NE(Find(m, "cluster.event.arrival_deflate.total_s"), nullptr);
  for (const char* name :
       {"cluster.event.arrival_deflate.p50_us", "cluster.event.arrival_deflate.p99_us",
        "cluster.event.completion.p50_us", "cluster.event.other.p99_us"}) {
    EXPECT_EQ(Find(m, name), nullptr) << name;
    EXPECT_TRUE(Unreportable(m, name)) << name;
  }
  const double* p50 = Find(m, "cluster.event.arrival_fit.p50_us");
  const double* p99 = Find(m, "cluster.event.arrival_fit.p99_us");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(*p50, 500.0);
  EXPECT_EQ(*p99, 990.0);
  EXPECT_EQ(m.values.size() + m.unreportable.size(), 4u * kNumEventKinds);
}

std::string CloudDigest(uint64_t seed, bool event_by_event) {
  defl::ClusterSimConfig config = CloudConfig(seed, 40, 800);
  config.explicit_trace = defl::GenerateDiurnalTrace(config.trace, config.arrivals);
  defl::Result<defl::SimSession> session = defl::SimSession::Open(config);
  EXPECT_TRUE(session.ok());
  if (event_by_event) {
    ClassifyAllEvents(session.value());
  }
  const defl::ClusterSimResult result = session.value().Finish();
  Digest digest;
  AddCounters(digest, result.counters);
  digest.AddDouble(result.mean_utilization);
  AddRegistry(digest, session.value().telemetry().metrics());
  return digest.Hex();
}

TEST(DigestStability, SameInputsSameDigest) {
  const std::string first = CloudDigest(3, false);
  EXPECT_EQ(first, CloudDigest(3, false));
  EXPECT_NE(first, CloudDigest(4, false));
}

TEST(DigestStability, StepwiseClassificationLeavesOutputsUnchanged) {
  EXPECT_EQ(CloudDigest(5, false), CloudDigest(5, true));
}

TEST(DigestStability, FieldBoundariesMatter) {
  Digest a, b;
  a.Add("ab");
  a.Add("c");
  b.Add("a");
  b.Add("bc");
  EXPECT_NE(a.Hex(), b.Hex());
  // Doubles enter exactly: one ulp apart is a different digest.
  Digest c, d;
  c.AddDouble(0.1);
  d.AddDouble(std::nextafter(0.1, 1.0));
  EXPECT_NE(c.Hex(), d.Hex());
}

// Every fsync goes through the timer (--wrap=fsync), and a Stopwatch leaves
// the time blocked in it out.
TEST(FsyncTimer, CountsCallsAndStopwatchLeavesThemOut) {
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  ASSERT_GE(std::fputs("x", file), 0);
  ASSERT_EQ(std::fflush(file), 0);
  const FsyncTotals before = FsyncSoFar();
  const int64_t start = NowNs();
  const Stopwatch clock;
  EXPECT_EQ(::fsync(fileno(file)), 0);
  const double program_s = clock.Seconds();
  const double host_s = SecondsSince(start);
  const FsyncTotals after = FsyncSoFar();
  std::fclose(file);
  EXPECT_EQ(after.calls, before.calls + 1);
  EXPECT_GT(after.ns, before.ns);
  EXPECT_NEAR(program_s, host_s - static_cast<double>(after.ns - before.ns) * 1e-9, 1e-3);
}

TEST(WhatIfScript, SeededAndMostlyRestoreBound) {
  const std::vector<std::string> script = WhatIfScript(7);
  EXPECT_EQ(script, WhatIfScript(7));
  EXPECT_NE(script, WhatIfScript(8));
  ASSERT_GE(script.size(), 100u);
  int restore_bound = 0;
  for (const std::string& line : script) {
    const defl::Result<defl::WhatIfQuery> q = defl::ParseQuery(line);
    ASSERT_TRUE(q.ok()) << line << ": " << q.error();
    restore_bound += q.value().hours == 0.0 ? 1 : 0;
  }
  EXPECT_EQ(restore_bound * 5, static_cast<int>(script.size()) * 4);
}

}  // namespace
}  // namespace perfbench

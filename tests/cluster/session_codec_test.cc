// The two-way snapshot codec (src/cluster/session_codec.h). Every section
// round-trips: encode a populated value, decode it, encode it again, and the
// two byte strings are equal. A payload cut inside a section fails with an
// error naming that section, and an out-of-range enum byte fails naming its
// field. Concurrent decodes of one shared blob (the what-if service's
// copy-on-restore children) agree with each other, and the streamed trace
// checksum is the digest of the sealed blob it no longer builds.
#include "src/cluster/session_codec.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/sim_session.h"
#include "src/cluster/slo_controller.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

constexpr size_t kHeaderBytes = 12;  // magic + format version
constexpr size_t kFooterBytes = 8;   // FNV-1a-64

template <typename T>
std::string Encode(T& value) {
  SnapshotWriter writer;
  SnapshotEncoder io(writer);
  Transfer(io, value);
  return writer.Finish();
}

// Decodes `blob` into `value`; returns the decoder's error, "" on success.
// A successful decode must consume the payload exactly.
template <typename T>
std::string Decode(const std::string& blob, T& value) {
  Result<SnapshotReader> opened = SnapshotReader::OpenView(blob);
  if (!opened.ok()) {
    return opened.error();
  }
  SnapshotDecoder io(opened.value());
  Transfer(io, value);
  if (!io.ok()) {
    return io.error();
  }
  return opened.value().AtEnd() ? "" : "trailing payload bytes";
}

// A sealed blob holding the first `keep` payload bytes of `blob`.
std::string CutPayload(const std::string& blob, size_t keep) {
  SnapshotWriter writer;
  for (size_t i = 0; i < keep; ++i) {
    writer.WriteU8(static_cast<uint8_t>(blob[kHeaderBytes + i]));
  }
  return writer.Finish();
}

// Round trip plus truncation: re-encoding the decoded value reproduces the
// bytes, and a payload cut halfway fails naming `section`.
template <typename T>
void ExpectSectionRoundTrips(T& value, const std::string& section) {
  const std::string bytes = Encode(value);
  T decoded{};
  ASSERT_EQ(Decode(bytes, decoded), "") << section;
  EXPECT_EQ(Encode(decoded), bytes) << section << " did not round-trip";

  const size_t payload = bytes.size() - kHeaderBytes - kFooterBytes;
  ASSERT_GT(payload, 1u) << section;
  T cut{};
  const std::string error = Decode(CutPayload(bytes, payload / 2), cut);
  EXPECT_NE(error, "") << section << " decoded from half its payload";
  EXPECT_NE(error.find("in section " + section), std::string::npos)
      << "error does not name section '" << section << "': " << error;
}

VmSpec DeflatableSpec() {
  VmSpec spec;
  spec.name = "spark-17";
  spec.size = ResourceVector(8.0, 32.0 * 1024.0, 100.0, 1000.0);
  spec.priority = VmPriority::kLow;
  spec.min_size = spec.size * 0.5;
  return spec;
}

ClusterSimConfig PopulatedConfig() {
  ClusterSimConfig config;
  config.num_servers = 12;
  config.trace.seed = 99;
  config.trace.catalog.push_back(
      VmCatalogEntry{"web", ResourceVector(2.0, 4096.0), 0.25, 3.0});
  config.cluster.placement = PlacementPolicy::kTwoChoices;
  config.cluster.strategy = ReclamationStrategy::kPreemptionOnly;
  config.cluster.controller.mode = DeflationMode::kBalloonLevel;
  config.cluster.controller.split = DeflationSplit::kEqual;
  config.cluster.controller.guard.max_attempts = 5;
  config.reinflate_period_s = 300.0;
  config.predictive_holdback = true;
  config.fault_plan.seed = 5;
  FaultRule crash;
  crash.kind = FaultKind::kServerCrash;
  crash.server = 3;
  crash.start_s = 1800.0;
  FaultRule slow;
  slow.kind = FaultKind::kAgentSlow;
  slow.probability = 0.25;
  slow.magnitude = 2.0;
  slow.max_count = 40;
  config.fault_plan.rules = {crash, slow};
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.5;
  config.interactive.enabled = true;
  config.interactive.fraction = 0.4;
  config.interactive.slo_aware = false;
  config.interactive.latency.cliff_power = 2.5;
  return config;
}

TEST(SessionCodecTest, ResourceVectorRoundTrips) {
  ResourceVector v(1.5, 2048.0, 10.0, 100.0);
  ExpectSectionRoundTrips(v, "resource vector");
}

TEST(SessionCodecTest, VmSpecRoundTrips) {
  VmSpec spec = DeflatableSpec();
  spec.priority = VmPriority::kHigh;
  ExpectSectionRoundTrips(spec, "VM spec");
}

TEST(SessionCodecTest, ConfigWithCatalogFaultRulesAndMixRoundTrips) {
  ClusterSimConfig config = PopulatedConfig();
  ExpectSectionRoundTrips(config, "config");
  ClusterSimConfig decoded;
  ASSERT_EQ(Decode(Encode(config), decoded), "");
  EXPECT_EQ(decoded.trace.catalog.size(), config.trace.catalog.size());
  ASSERT_EQ(decoded.fault_plan.rules.size(), 2u);
  EXPECT_EQ(decoded.fault_plan.rules[1].kind, FaultKind::kAgentSlow);
  EXPECT_EQ(decoded.cluster.placement, PlacementPolicy::kTwoChoices);
  EXPECT_TRUE(decoded.interactive.enabled);
}

TEST(SessionCodecTest, TraceEventRoundTrips) {
  TraceEvent event{1234.5, 600.0, DeflatableSpec()};
  ExpectSectionRoundTrips(event, "trace event");
}

TEST(SessionCodecTest, ArrivalTraceSectionRoundTrips) {
  StoredTrace inlined;
  inlined.inlined = {TraceEvent{10.0, 60.0, DeflatableSpec()},
                     TraceEvent{20.0, 120.0, DeflatableSpec()}};
  inlined.length = inlined.inlined.size();
  inlined.fnv = TraceChecksum(inlined.inlined);
  ExpectSectionRoundTrips(inlined, "arrival trace");

  // A generated trace stores no events, only its length and checksum.
  StoredTrace generated;
  generated.generated = true;
  generated.length = 5000;
  generated.fnv = 0x1234;
  ExpectSectionRoundTrips(generated, "arrival trace");
  EXPECT_EQ(Encode(generated).size(), kHeaderBytes + 1 + 8 + 8 + kFooterBytes);
}

// What TraceChecksum has always meant: the events sealed into a blob like a
// snapshot's, and the whole blob hashed.
uint64_t SealedTraceDigest(const std::vector<TraceEvent>& trace) {
  SnapshotWriter writer;
  SnapshotEncoder io(writer);
  for (const TraceEvent& event : trace) {
    Transfer(io, event);
  }
  const std::string bytes = writer.Finish();
  return SnapshotFnv1a64(bytes.data(), bytes.size());
}

TEST(SessionCodecTest, StreamedTraceChecksumEqualsSealedBlobDigest) {
  TraceConfig config;
  config.duration_s = 4.0 * 3600.0;
  config.arrival_rate_per_s = 0.05;
  config.seed = 7;
  ArrivalGenConfig diurnal;
  diurnal.enabled = true;
  diurnal.diurnal_amplitude = 0.6;
  diurnal.diurnal_period_s = 2.0 * 3600.0;
  diurnal.seed = 17;
  InteractiveSloConfig mix;
  mix.enabled = true;
  mix.fraction = 0.45;

  const std::vector<TraceEvent> flat = GenerateTrace(config);
  std::vector<TraceEvent> tagged = GenerateDiurnalTrace(config, diurnal);
  ApplyInteractiveMix(tagged, mix);
  ASSERT_GT(CountInteractive(tagged), 0);
  // Past the 15 characters a std::string keeps inline.
  VmSpec long_name = DeflatableSpec();
  long_name.name = "memcached-hot-set-replica-000042";
  const std::vector<std::pair<const char*, std::vector<TraceEvent>>> traces = {
      {"empty", {}},
      {"flat", flat},
      {"diurnal", GenerateDiurnalTrace(config, diurnal)},
      {"long names", {TraceEvent{5.0, 60.0, long_name}, TraceEvent{9.5, 30.0, long_name}}},
      {"interactive-tagged", tagged},
  };
  for (const auto& [name, trace] : traces) {
    EXPECT_EQ(TraceChecksum(trace), SealedTraceDigest(trace)) << name;
  }
  EXPECT_NE(TraceChecksum(flat), TraceChecksum({}));
}

TEST(SessionCodecTest, ClockRoundTrips) {
  SessionClock clock{3600.25, 81, 77};
  ExpectSectionRoundTrips(clock, "clock");
}

TEST(SessionCodecTest, QueueEntriesOfAllSevenKindsRoundTrip) {
  std::vector<QueueEntry> queue;
  for (uint8_t kind = 0; kind <= static_cast<uint8_t>(SimEventKind::kSloTick); ++kind) {
    queue.push_back(QueueEntry{100.0 * kind, 10 + kind, static_cast<SimEventKind>(kind),
                               static_cast<int64_t>(kind) * 3});
  }
  ASSERT_EQ(queue.size(), 7u);
  ExpectSectionRoundTrips(queue[3], "queue entry");
  ExpectSectionRoundTrips(queue, "event queue");
}

TEST(SessionCodecTest, DeflatedVmImageRoundTrips) {
  HostedVmImage vm;
  vm.id = 42;
  vm.spec = DeflatableSpec();
  vm.hv_reclaimed = ResourceVector(0.5, 1024.0, 10.0, 0.0);
  vm.unplugged = ResourceVector(2.0, 4096.0, 0.0, 0.0);
  vm.balloon_mb = 512.0;
  vm.app_used_mb = 8000.0;
  vm.page_cache_mb = 3000.0;
  vm.pinned_cpus = 2;
  ExpectSectionRoundTrips(vm, "hosted VM");

  ManagerImage manager;
  manager.rng = {1, 2, 3, 0xffffffffffffffffULL};
  manager.health = {ServerHealth::kHealthy, ServerHealth::kDegraded, ServerHealth::kDown,
                    ServerHealth::kRecovering};
  manager.preempted = {7, 9};
  manager.servers = {{vm, vm}, {}, {vm}, {}};
  ExpectSectionRoundTrips(manager, "manager");
}

TEST(SessionCodecTest, InjectorStateRoundTrips) {
  FaultInjector::State state;
  state.site_draws = {{0, 4, 1, 17}, {3, -1, 2, 5}};
  state.rule_fires = {3, 0, 11};
  state.injected[2] = 6;
  std::optional<FaultInjector::State> injector = state;
  ExpectSectionRoundTrips(injector, "fault injector");
  // Without a fault plan the section is a single presence byte.
  std::optional<FaultInjector::State> absent;
  EXPECT_EQ(Encode(absent).size(), kHeaderBytes + 1 + kFooterBytes);
  ASSERT_EQ(Decode(Encode(absent), injector), "");
  EXPECT_FALSE(injector.has_value());
}

TEST(SessionCodecTest, PredictorRoundTrips) {
  EwmaPredictor predictor(0.3);
  predictor.Observe(10.0);
  predictor.Observe(14.0);
  ExpectSectionRoundTrips(predictor, "predictor");
  EwmaPredictor decoded;
  ASSERT_EQ(Decode(Encode(predictor), decoded), "");
  EXPECT_TRUE(decoded.initialized());
  EXPECT_EQ(decoded.mean(), predictor.mean());
  EXPECT_EQ(decoded.variance(), predictor.variance());
}

MetricsRegistry::State PopulatedMetrics() {
  MetricsRegistry registry;
  registry.Add(registry.Counter("a/count"), 3);
  registry.AddTo(registry.Gauge("a/gauge"), 2.5);
  const DistributionHandle hist = registry.Distribution("a/hist", 0.0, 10.0, 5);
  registry.Observe(hist, 1.0);
  registry.Observe(hist, 7.5);
  registry.Observe(hist, 42.0);
  const SeriesHandle series = registry.Series("a/series");
  registry.ObserveAt(series, 1.0, 0.5);
  registry.ObserveAt(series, 2.0, 0.75);
  return registry.ExportState();
}

TEST(SessionCodecTest, MetricsWithHistogramAndSeriesRoundTrip) {
  MetricsRegistry::State metrics = PopulatedMetrics();
  ASSERT_TRUE(metrics.distributions.at(0).has_histogram);
  ExpectSectionRoundTrips(metrics, "metrics");
}

TraceEventRecord Record(TraceEventKind kind, CascadeLayer layer) {
  TraceEventRecord record;
  record.time = 12.5;
  record.kind = kind;
  record.layer = layer;
  record.vm = 7;
  record.server = 2;
  record.target = ResourceVector(1.0, 512.0);
  record.reclaimed = ResourceVector(0.5, 256.0);
  record.outcome = -3;
  return record;
}

TEST(SessionCodecTest, TraceRecordsRoundTrip) {
  TraceEventRecord record = Record(TraceEventKind::kCascadeStage, CascadeLayer::kGuestOs);
  ExpectSectionRoundTrips(record, "trace record");

  TelemetrySection<std::vector<TraceEventRecord>> telemetry;
  telemetry.trace_enabled = true;
  telemetry.metrics = PopulatedMetrics();
  telemetry.records = {record,
                       Record(TraceEventKind::kServerRecover, CascadeLayer::kHypervisor)};
  ExpectSectionRoundTrips(telemetry, "telemetry");
}

// Each enum byte a snapshot stores is range-checked on decode, and the error
// names the field.
TEST(SessionCodecTest, OutOfRangeEnumBytesNameTheirField) {
  auto expect_rejected = [](auto value, const std::string& field) {
    const std::string bytes = Encode(value);
    decltype(value) decoded{};
    const std::string error = Decode(bytes, decoded);
    EXPECT_NE(error.find("snapshot " + field + " byte"), std::string::npos)
        << field << ": " << error;
    EXPECT_NE(error.find("is out of range"), std::string::npos) << error;
  };
  ClusterSimConfig config;
  config.cluster.placement = static_cast<PlacementPolicy>(9);
  expect_rejected(config, "placement policy");
  config = ClusterSimConfig();
  config.cluster.strategy = static_cast<ReclamationStrategy>(9);
  expect_rejected(config, "reclamation strategy");
  config = ClusterSimConfig();
  config.cluster.controller.mode = static_cast<DeflationMode>(9);
  expect_rejected(config, "deflation mode");
  config = ClusterSimConfig();
  config.cluster.controller.split = static_cast<DeflationSplit>(9);
  expect_rejected(config, "deflation split");
  config = ClusterSimConfig();
  FaultRule rule;
  rule.kind = static_cast<FaultKind>(kNumFaultKinds);
  config.fault_plan.rules.push_back(rule);
  expect_rejected(config, "fault kind");

  expect_rejected(Record(static_cast<TraceEventKind>(99), CascadeLayer::kNone),
                  "trace record kind");
  expect_rejected(Record(TraceEventKind::kDeflation, static_cast<CascadeLayer>(9)),
                  "trace record layer");
  VmSpec spec = DeflatableSpec();
  spec.priority = static_cast<VmPriority>(2);
  expect_rejected(spec, "VM priority");
  expect_rejected(QueueEntry{1.0, 1, static_cast<SimEventKind>(7), 0}, "queue entry kind");
  ManagerImage manager;
  manager.health = {static_cast<ServerHealth>(4)};
  expect_rejected(manager, "server health");
}

TEST(SessionCodecTest, CountLargerThanThePayloadIsRejected) {
  std::vector<QueueEntry> queue(3);
  const std::string bytes = Encode(queue);
  // Keep the count (8 bytes) and one entry: three entries cannot fit.
  std::vector<QueueEntry> decoded;
  const std::string error = Decode(CutPayload(bytes, 8 + 25), decoded);
  EXPECT_NE(error.find("snapshot queue entry count 3 exceeds the remaining payload"),
            std::string::npos)
      << error;
}

TEST(SessionCodecTest, ConcurrentDecodesOfOneBlobAgree) {
  ClusterSimConfig config;
  config.num_servers = 6;
  config.trace.duration_s = 2.0 * 3600.0;
  config.trace =
      WithTargetLoad(config.trace, 1.5, config.num_servers, config.server_capacity);
  config.reinflate_period_s = 600.0;
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(true);
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(3600.0);
  const std::string blob = session.value().SnapshotBytes();

  std::vector<std::string> again(4);
  std::vector<std::thread> threads;
  for (std::string& out : again) {
    threads.emplace_back([&blob, &out] {
      Result<SimSession> child =
          SimSession::RestoreView(blob, SimSession::RestoreOptions());
      if (child.ok()) {
        out = child.value().SnapshotBytes();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::string& out : again) {
    EXPECT_EQ(out, blob);
  }
}

}  // namespace
}  // namespace defl

// SimSession: the steppable simulation API and its checkpoint/restore
// contract (DESIGN.md §11). Stepping must be invisible in the final result
// (a stepped run equals a batch RunClusterSim of the same config), a
// snapshot/restore cycle must be byte-invisible in the telemetry exports,
// and corrupted or truncated snapshots must fail Restore with a descriptive
// error -- never a crash or a half-restored session. Sessions built from
// one decoded Image share its trace and never write it. Arrivals leave the
// trace through a cursor merged with the event heap, so same-instant
// stragglers, a pending arrival behind a heap past the horizon, and the
// pending-event count are pinned here too, as is the trace validation
// Open and restore share with the CSV loader, and the generator config
// check they run before generating a trace.
#include "src/cluster/sim_session.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/session_codec.h"
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

// Overwrites the 8 little-endian bytes at `offset`.
void PutU64(std::string& bytes, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

uint64_t GetU64(const std::string& bytes, size_t offset) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[offset + i])) << (8 * i);
  }
  return value;
}

// Recomputes a snapshot's integrity footer over everything before it.
void Reseal(std::string& bytes) {
  PutU64(bytes, bytes.size() - 8, SnapshotFnv1a64(bytes.data(), bytes.size() - 8));
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

// Open of `config` fails, naming `field`.
void ExpectOpenRejects(const ClusterSimConfig& config, const std::string& field) {
  const Result<SimSession> session = SimSession::Open(config);
  ASSERT_FALSE(session.ok()) << field;
  EXPECT_NE(session.error().find(field), std::string::npos) << session.error();
}

// The trace generator's fields are checked before Open generates from them.
TEST(SimSessionTest, OpenRejectsAnArrivalRateThatNeverReachesTheHorizon) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double rate : {-0.01, 0.0, inf, std::nan("")}) {
    ClusterSimConfig config = SmallSim();
    config.trace.arrival_rate_per_s = rate;
    ExpectOpenRejects(config, "trace.arrival_rate_per_s");
  }
}

TEST(SimSessionTest, OpenRejectsAnEmptyLifetimeRange) {
  // A workload shorter than the 600 s minimum lifetime, as deflation_sim
  // builds it: max_lifetime_s = min(duration, 8 h).
  ClusterSimConfig config = SmallSim();
  config.trace.max_lifetime_s = 180.0;
  ExpectOpenRejects(config, "trace.max_lifetime_s");
  config.trace.max_lifetime_s = config.trace.min_lifetime_s;
  ExpectOpenRejects(config, "trace.max_lifetime_s");
  config.trace.max_lifetime_s = std::numeric_limits<double>::infinity();
  ExpectOpenRejects(config, "trace.max_lifetime_s");
  config = SmallSim();
  config.trace.min_lifetime_s = 0.0;
  ExpectOpenRejects(config, "trace.min_lifetime_s");
}

TEST(SimSessionTest, OpenRejectsALifetimeAlphaTheParetoCannotUse) {
  // 3600^120 overflows a double, and every lifetime drawn would be NaN; at
  // 1e-300 both bounds' powers round to 1, and every lifetime would be 1 s.
  for (const double alpha :
       {0.0, -1.5, std::numeric_limits<double>::infinity(), 120.0, 1e-300}) {
    ClusterSimConfig config = SmallSim();
    config.trace.lifetime_alpha = alpha;
    ExpectOpenRejects(config, "trace.lifetime_alpha");
  }
}

TEST(SimSessionTest, OpenRejectsAnEmptyCatalog) {
  ClusterSimConfig config = SmallSim();
  config.trace.catalog.clear();
  ExpectOpenRejects(config, "trace.catalog");
}

TEST(SimSessionTest, OpenRejectsAnInfiniteDuration) {
  ClusterSimConfig config = SmallSim();
  config.trace.duration_s = std::numeric_limits<double>::infinity();
  ExpectOpenRejects(config, "trace.duration_s");
  // With an explicit trace too: the run's ticks stop only at the horizon.
  config.explicit_trace = GenerateTrace(SmallSim().trace);
  ExpectOpenRejects(config, "trace.duration_s");
}

TEST(SimSessionTest, ExplicitTraceLeavesTheGeneratorFieldsUnchecked) {
  // A short replay: deflation_sim sets max_lifetime_s below min_lifetime_s.
  ClusterSimConfig config = SmallSim();
  config.explicit_trace = GenerateTrace(config.trace);
  config.trace.max_lifetime_s = 180.0;
  config.trace.arrival_rate_per_s = -1.0;
  config.trace.catalog.clear();
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  const Result<SimSession> restored =
      SimSession::RestoreView(session.value().SnapshotBytes(), {});
  ASSERT_TRUE(restored.ok()) << restored.error();
}

// Replaces the arrival rate of a snapshot cut from a session of `config`,
// and reseals it, so only Decode's trace checks can object. The rate is
// stored once, as its own 8 bytes in the config section.
void PatchArrivalRate(std::string& bytes, const ClusterSimConfig& config, double rate) {
  std::string stored(8, '\0');
  PutU64(stored, 0, std::bit_cast<uint64_t>(config.trace.arrival_rate_per_s));
  const size_t at = bytes.find(stored);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(stored, at + 1), std::string::npos);
  PutU64(bytes, at, std::bit_cast<uint64_t>(rate));
  Reseal(bytes);
}

TEST(SimSessionTest, DecodeRejectsAGeneratedTraceWithANegativeArrivalRate) {
  const ClusterSimConfig config = SmallSim();
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  std::string patched = session.value().SnapshotBytes();

  // Regenerating would append arrivals forever, since the clock only moves
  // back.
  ASSERT_NO_FATAL_FAILURE(
      PatchArrivalRate(patched, config, -config.trace.arrival_rate_per_s));
  const Result<std::shared_ptr<const SimSession::Image>> image =
      SimSession::Decode(patched);
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.error().find("trace cannot be regenerated: "
                               "trace.arrival_rate_per_s must be positive"),
            std::string::npos)
      << image.error();
}

// A rate raised a millionfold is still positive and finite, so the config
// check passes; run out to the horizon, the generator would draw 10^6 times
// the recorded arrivals. Decode stops one arrival past the recorded length
// and names it.
void ExpectRaisedRateStopsAtTheStoredLength(const ClusterSimConfig& config) {
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  const size_t length = session.value().generated_trace().events->size();
  ASSERT_GT(length, 0u);
  session.value().StepUntil(1800.0);
  std::string patched = session.value().SnapshotBytes();

  ASSERT_NO_FATAL_FAILURE(
      PatchArrivalRate(patched, config, config.trace.arrival_rate_per_s * 1e6));
  const Result<std::shared_ptr<const SimSession::Image>> image =
      SimSession::Decode(patched);
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.error().find("snapshot's elided arrival trace cannot be "
                               "regenerated: the generator runs past the " +
                               std::to_string(length) +
                               " arrivals the snapshot recorded"),
            std::string::npos)
      << image.error();
}

TEST(SimSessionTest, DecodeStopsAFlatTraceWithARaisedRateAtTheStoredLength) {
  ExpectRaisedRateStopsAtTheStoredLength(SmallSim());
}

TEST(SimSessionTest, DecodeStopsADiurnalTraceWithARaisedRateAtTheStoredLength) {
  ClusterSimConfig config = SmallSim();
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.5;
  config.arrivals.diurnal_period_s = 3600.0;
  config.arrivals.burst_rate_per_s = 2.0 / 3600.0;
  config.arrivals.burst_multiplier = 3.0;
  ExpectRaisedRateStopsAtTheStoredLength(config);
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
    Result<SimSession> restored = SimSession::RestoreView(bytes, options);
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
  Result<SimSession> restored = SimSession::RestoreView(bytes, options);
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
  Result<SimSession> r = SimSession::RestoreView(bad_magic, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("magic"), std::string::npos) << r.error();

  // Unsupported future version.
  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  r = SimSession::RestoreView(bad_version, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("version"), std::string::npos) << r.error();

  // A flipped payload byte must trip the integrity footer.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 0x5a);
  r = SimSession::RestoreView(flipped, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("integrity"), std::string::npos) << r.error();

  // Truncation at a sampling of prefix lengths: always an error, never a
  // crash, never a session.
  for (const size_t keep : {size_t{0}, size_t{4}, size_t{11}, size_t{12},
                            bytes.size() / 3, bytes.size() - 9, bytes.size() - 1}) {
    r = SimSession::RestoreView(bytes.substr(0, keep), {});
    EXPECT_FALSE(r.ok()) << "prefix of " << keep << " bytes restored";
  }

  // Trailing garbage after the footer.
  r = SimSession::RestoreView(bytes + "zzz", {});
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
  const Result<SimSession> restored = SimSession::RestoreView(bytes, options);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.error().find("mismatch"), std::string::npos)
      << restored.error();
}

TEST(SimSessionTest, SessionsBuiltFromAnImageShareItsTrace) {
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  const std::string bytes = session.value().SnapshotBytes();
  const uint64_t fnv = session.value().generated_trace().fnv;

  Result<std::shared_ptr<const SimSession::Image>> image = SimSession::Decode(bytes);
  ASSERT_TRUE(image.ok()) << image.error();
  Result<SimSession> first = SimSession::Build(*image.value(), {});
  Result<SimSession> second = SimSession::Build(*image.value(), {});
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_TRUE(second.ok()) << second.error();
  const SimSession::SharedTrace trace = first.value().generated_trace();
  ASSERT_NE(trace.events, nullptr);
  EXPECT_EQ(second.value().generated_trace().events, trace.events);
  EXPECT_EQ(trace.fnv, fnv);
  EXPECT_EQ(first.value().SnapshotBytes(), bytes);

  // A session runs on without writing through the image, and outlives it.
  first.value().StepUntil(3600.0);
  Result<SimSession> third = SimSession::Build(*image.value(), {});
  ASSERT_TRUE(third.ok()) << third.error();
  EXPECT_EQ(third.value().SnapshotBytes(), bytes);
  image = Error{"dropped"};
  second.value().StepUntil(3600.0);
  EXPECT_EQ(second.value().SnapshotBytes(), first.value().SnapshotBytes());
  EXPECT_EQ(TraceChecksum(*trace.events), fnv);
}

TEST(SimSessionTest, ExplicitTraceMovesIntoTheSession) {
  ClusterSimConfig config = SmallSim();
  config.explicit_trace = GenerateTrace(config.trace);
  ASSERT_FALSE(config.explicit_trace.empty());
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  EXPECT_TRUE(session.value().config().explicit_trace.empty());
  EXPECT_EQ(session.value().generated_trace().events, nullptr);
  session.value().StepUntil(1800.0);
  const std::string bytes = session.value().SnapshotBytes();

  // A session built from an inlined-trace image reports no generated trace.
  Result<std::shared_ptr<const SimSession::Image>> image = SimSession::Decode(bytes);
  ASSERT_TRUE(image.ok()) << image.error();
  Result<SimSession> restored = SimSession::Build(*image.value(), {});
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_TRUE(restored.value().config().explicit_trace.empty());
  EXPECT_EQ(restored.value().generated_trace().events, nullptr);
  EXPECT_EQ(restored.value().SnapshotBytes(), bytes);
}

TEST(SimSessionTest, OpenRejectsAnInvalidExplicitTraceNamingTheFirstBadEvent) {
  const std::vector<TraceEvent> valid = GenerateTrace(SmallSim().trace);
  ASSERT_GT(valid.size(), 4u);
  struct Case {
    size_t index;
    void (*damage)(TraceEvent&);
    std::string reason;
  };
  const Case cases[] = {
      {0, [](TraceEvent& e) { e.arrival_s = -0.5; }, "arrival time is negative"},
      {2, [](TraceEvent& e) { e.arrival_s = std::nan(""); }, "arrival time is not finite"},
      {3, [](TraceEvent& e) { e.arrival_s = 0.0; }, "arrivals not sorted"},
      {1, [](TraceEvent& e) { e.lifetime_s = 0.0; }, "lifetime is not positive"},
      {2, [](TraceEvent& e) { e.spec.min_size = e.spec.size * 2.0; },
       "min size exceeds size"},
  };
  for (const Case& c : cases) {
    ClusterSimConfig config = SmallSim();
    config.explicit_trace = valid;
    c.damage(config.explicit_trace[c.index]);
    // A later bad event does not hide the first.
    config.explicit_trace.back().lifetime_s = -1.0;
    const Result<SimSession> session = SimSession::Open(config);
    ASSERT_FALSE(session.ok()) << c.reason;
    EXPECT_NE(session.error().find("explicit_trace event " + std::to_string(c.index) +
                                   ": " + c.reason),
              std::string::npos)
        << session.error();
  }
}

TEST(SimSessionTest, RestoreRejectsAnInlinedTraceWithANegativeArrival) {
  ClusterSimConfig config = SmallSim();
  config.explicit_trace = GenerateTrace(config.trace);
  ASSERT_FALSE(config.explicit_trace.empty());
  std::vector<TraceEvent> events = config.explicit_trace;
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  const std::string bytes = session.value().SnapshotBytes();

  // The trace section follows the header and the config section: the
  // generated bit, the length, the checksum, then event 0's arrival time.
  SnapshotWriter writer;
  SnapshotEncoder io(writer);
  Transfer(io, session.value().config());
  const size_t trace_at = writer.Finish().size() - 8;
  const size_t fnv_at = trace_at + 1 + 8;
  const size_t arrival_at = fnv_at + 8;
  ASSERT_EQ(GetU64(bytes, fnv_at), TraceChecksum(events));
  ASSERT_EQ(GetU64(bytes, arrival_at), std::bit_cast<uint64_t>(events[0].arrival_s));

  // Re-checksummed and resealed, so only the trace rules can object.
  const auto with_first_arrival = [&](double arrival_s) {
    events[0].arrival_s = arrival_s;
    std::string patched = bytes;
    PutU64(patched, arrival_at, std::bit_cast<uint64_t>(arrival_s));
    PutU64(patched, fnv_at, TraceChecksum(events));
    Reseal(patched);
    return SimSession::RestoreView(patched, {});
  };
  const Result<SimSession> earlier = with_first_arrival(events[0].arrival_s / 2.0);
  ASSERT_TRUE(earlier.ok()) << earlier.error();
  const Result<SimSession> negative = with_first_arrival(-0.5);
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.error().find("inlined arrival trace is invalid: event 0: "
                                  "arrival time is negative"),
            std::string::npos)
      << negative.error();
}

TEST(SimSessionTest, NotDoneWhileAnArrivalIsDueBeforeEveryHeapEntry) {
  ClusterSimConfig config = SmallSim();
  config.trace.duration_s = 1000.0;
  config.sample_period_s = 5000.0;  // the only tick lies past the horizon
  config.reinflate_period_s = 0.0;
  VmSpec spec;
  spec.name = "vm-0";
  spec.size = ResourceVector(4.0, 16384.0, 100.0, 500.0);
  spec.min_size = spec.size * 0.5;
  config.explicit_trace = {TraceEvent{100.0, 4000.0, spec}};
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  SimSession& sim = session.value();
  EXPECT_FALSE(sim.done());
  EXPECT_EQ(sim.Inspect().pending_events, 2);  // the tick and the arrival

  // So is a restore of it.
  Result<SimSession> restored = SimSession::RestoreView(sim.SnapshotBytes(), {});
  ASSERT_TRUE(restored.ok()) << restored.error();
  EXPECT_FALSE(restored.value().done());
  EXPECT_EQ(restored.value().Inspect().pending_events, 2);

  EXPECT_EQ(sim.StepEvents(10), 1);
  EXPECT_EQ(sim.now(), 100.0);
  EXPECT_TRUE(sim.done());
  EXPECT_EQ(sim.Inspect().pending_events, 2);  // the tick and the completion
  EXPECT_EQ(sim.Inspect().hosted_vms, 1);
}

// A fault event, four arrivals and both ticks all at t = 600 s.
ClusterSimConfig SameInstantSim() {
  ClusterSimConfig config = SmallSim();
  config.trace.duration_s = 3600.0;
  for (int i = 0; i < 48; ++i) {
    TraceEvent event;
    event.arrival_s = 300.0 * (i / 4);
    event.lifetime_s = 900.0 + 100.0 * (i % 5);
    event.spec.name = "vm-" + std::to_string(i);
    event.spec.priority = i % 3 == 0 ? VmPriority::kHigh : VmPriority::kLow;
    event.spec.size = ResourceVector(16.0, 64.0 * 1024.0, 200.0, 1000.0);
    event.spec.min_size = event.spec.size * 0.25;
    config.explicit_trace.push_back(event);
  }
  FaultRule crash;
  crash.kind = FaultKind::kServerCrash;
  crash.server = 3;
  crash.start_s = 600.0;
  FaultRule recover = crash;
  recover.kind = FaultKind::kServerRecover;
  recover.start_s = 1500.0;
  config.fault_plan.rules = {crash, recover};
  return config;
}

TEST(SimSessionTest, RestoreAtEveryEventOfOneInstantIsByteInvisible) {
  std::string expected_export;
  std::string expected_final;
  {
    ClusterSimConfig config = SameInstantSim();
    TelemetryContext telemetry;
    config.telemetry = &telemetry;
    Result<SimSession> session = SimSession::Open(config);
    ASSERT_TRUE(session.ok()) << session.error();
    session.value().Finish();
    expected_export = Export(telemetry);
    expected_final = session.value().SnapshotBytes();
  }

  ClusterSimConfig config = SameInstantSim();
  TelemetryContext telemetry;
  config.telemetry = &telemetry;
  Result<SimSession> session = SimSession::Open(config);
  ASSERT_TRUE(session.ok()) << session.error();
  SimSession& sim = session.value();
  sim.StepUntil(599.0);
  int snapshots_at_instant = 0;
  while (sim.now() <= 600.0) {
    const std::string bytes = sim.SnapshotBytes();
    const int64_t pending = sim.Inspect().pending_events;
    snapshots_at_instant += sim.now() == 600.0 ? 1 : 0;

    TelemetryContext resumed;
    SimSession::RestoreOptions options;
    options.telemetry = &resumed;
    Result<SimSession> restored = SimSession::RestoreView(bytes, options);
    ASSERT_TRUE(restored.ok()) << "at event " << sim.events_executed() << ": "
                               << restored.error();
    EXPECT_EQ(restored.value().Inspect().pending_events, pending)
        << "at event " << sim.events_executed();
    EXPECT_EQ(restored.value().SnapshotBytes(), bytes)
        << "at event " << sim.events_executed();
    restored.value().Finish();
    EXPECT_EQ(Export(resumed), expected_export) << "at event " << sim.events_executed();
    EXPECT_EQ(restored.value().SnapshotBytes(), expected_final)
        << "at event " << sim.events_executed();
    ASSERT_EQ(sim.StepEvents(1), 1);
  }
  // One snapshot after each of the seven events at 600 s.
  EXPECT_EQ(snapshots_at_instant, 7);
  sim.Finish();
  EXPECT_EQ(Export(telemetry), expected_export);
  EXPECT_EQ(sim.SnapshotBytes(), expected_final);
}

TEST(SimSessionTest, RestoreRejectsAListedArrivalTheCursorOwns) {
  Result<SimSession> session = SimSession::Open(SameInstantSim());
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(599.0);
  ASSERT_EQ(session.value().StepEvents(1), 1);  // the fault event at 600 s
  const std::string bytes = session.value().SnapshotBytes();

  // The image lists arrival 8, due at 600 s, with seq = |fault timeline| + 8
  // (the crash and the recovery make two fault events).
  std::string entry(8 + 8 + 1 + 8, '\0');
  PutU64(entry, 0, std::bit_cast<uint64_t>(600.0));
  PutU64(entry, 8, 2 + 8);
  entry[16] = static_cast<char>(SimEventKind::kVmArrival);
  PutU64(entry, 17, 8);
  const size_t at = bytes.find(entry);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(entry, at + 1), std::string::npos);

  // Listing arrival 47 (due at 3300 s) instead would run it twice: once
  // from the heap and once from the cursor.
  std::string patched = bytes;
  PutU64(patched, at + 17, 47);
  Reseal(patched);
  const Result<SimSession> restored = SimSession::RestoreView(patched, {});
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.error().find("payload 47 is out of range"), std::string::npos)
      << restored.error();
}

TEST(SimSessionTest, GeneratedTraceChecksumIsTheTraces) {
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  const SimSession::SharedTrace trace = session.value().generated_trace();
  ASSERT_NE(trace.events, nullptr);
  EXPECT_EQ(trace.fnv, TraceChecksum(*trace.events));
}

TEST(SimSessionTest, ReTaggedChildSnapshotsItsOwnTraceChecksum) {
  Result<SimSession> session = SimSession::Open(SmallSim());
  ASSERT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(1800.0);
  const std::string bytes = session.value().SnapshotBytes();

  // The child starts from the image's trace and checksum, then re-tags a
  // private one; the checksum it snapshots must be the re-tagged trace's.
  Result<std::shared_ptr<const SimSession::Image>> image = SimSession::Decode(bytes);
  ASSERT_TRUE(image.ok()) << image.error();
  Result<SimSession> plain = SimSession::Build(*image.value(), {});
  ASSERT_TRUE(plain.ok()) << plain.error();
  const SimSession::SharedTrace shared = plain.value().generated_trace();
  SimSession::RestoreOptions options;
  options.slo.active = true;
  options.slo.fraction = 0.5;
  Result<SimSession> child = SimSession::Build(*image.value(), options);
  ASSERT_TRUE(child.ok()) << child.error();
  const std::string child_bytes = child.value().SnapshotBytes();
  const SimSession::SharedTrace retagged = child.value().generated_trace();
  ASSERT_NE(retagged.events, shared.events);
  EXPECT_NE(retagged.fnv, shared.fnv);
  EXPECT_EQ(retagged.fnv, TraceChecksum(*retagged.events));

  Result<SimSession> again = SimSession::RestoreView(child_bytes, {});
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_EQ(again.value().generated_trace().fnv, retagged.fnv);
  EXPECT_EQ(again.value().SnapshotBytes(), child_bytes);
}

}  // namespace
}  // namespace defl

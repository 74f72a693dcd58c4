#include "src/telemetry/event_trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

TEST(EventTraceTest, RecordAppendsWithClockStamp) {
  EventTrace trace;
  double now = 42.0;
  trace.SetClock([&now] { return now; });
  trace.Record(TraceEventKind::kDeflation, CascadeLayer::kNone, /*vm=*/3,
               /*server=*/1, ResourceVector(1.0, 2.0, 3.0, 4.0),
               ResourceVector(0.5, 1.0, 1.5, 2.0), /*outcome=*/1);
  now = 50.0;
  trace.Record(TraceEventKind::kCascadeStage, CascadeLayer::kApplication, 3, -1,
               ResourceVector(), ResourceVector(), 0);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.events()[0].time, 42.0);
  EXPECT_DOUBLE_EQ(trace.events()[1].time, 50.0);
  EXPECT_EQ(trace.events()[0].vm, 3);
  EXPECT_EQ(trace.events()[0].server, 1);
  EXPECT_DOUBLE_EQ(trace.events()[0].target.memory_mb(), 2.0);
  EXPECT_DOUBLE_EQ(trace.events()[0].reclaimed.cpu(), 0.5);
  EXPECT_EQ(trace.events()[0].outcome, 1);
}

TEST(EventTraceTest, DisabledTraceRecordsNothing) {
  EventTrace trace;
  trace.set_enabled(false);
  trace.Record(TraceEventKind::kDeflation, CascadeLayer::kNone, 0, 0,
               ResourceVector(), ResourceVector(), 0);
  trace.RecordAt(1.0, TraceEventKind::kDeflation, CascadeLayer::kNone, 0, 0,
                 ResourceVector(), ResourceVector(), 0);
  EXPECT_EQ(trace.size(), 0u);
  trace.set_enabled(true);
  trace.RecordAt(1.0, TraceEventKind::kDeflation, CascadeLayer::kNone, 0, 0,
                 ResourceVector(), ResourceVector(), 0);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(EventTraceTest, CountKindFiltersByKindAndLayer) {
  EventTrace trace;
  for (int i = 0; i < 3; ++i) {
    trace.RecordAt(1.0, TraceEventKind::kCascadeStage, CascadeLayer::kApplication,
                   i, -1, ResourceVector(), ResourceVector(), 0);
  }
  trace.RecordAt(2.0, TraceEventKind::kCascadeStage, CascadeLayer::kHypervisor, 0,
                 -1, ResourceVector(), ResourceVector(), 0);
  trace.RecordAt(3.0, TraceEventKind::kPreemption, CascadeLayer::kNone, 0, 0,
                 ResourceVector(), ResourceVector(), 0);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kCascadeStage), 4);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kCascadeStage, CascadeLayer::kApplication), 3);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kCascadeStage, CascadeLayer::kHypervisor), 1);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kPreemption), 1);
  EXPECT_EQ(trace.CountKind(TraceEventKind::kRollback), 0);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(EventTraceTest, DumpJsonlOneLinePerEventAndDeterministic) {
  auto populate = [](EventTrace& trace) {
    trace.RecordAt(10.0, TraceEventKind::kDeflation, CascadeLayer::kNone, 7, 2,
                   ResourceVector(2.0, 4096.0, 0.0, 0.0),
                   ResourceVector(1.0, 2048.0, 0.0, 0.0), 1);
    trace.RecordAt(11.0, TraceEventKind::kVmLaunch, CascadeLayer::kNone, 8, 2,
                   ResourceVector(), ResourceVector(), 0);
  };
  EventTrace a;
  EventTrace b;
  populate(a);
  populate(b);
  std::ostringstream dump_a;
  std::ostringstream dump_b;
  a.DumpJsonl(dump_a);
  b.DumpJsonl(dump_b);
  EXPECT_EQ(dump_a.str(), dump_b.str());

  const std::string text = dump_a.str();
  size_t lines = 0;
  for (const char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(text.find("\"kind\": \"deflation\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"vm_launch\""), std::string::npos);
  EXPECT_NE(text.find("\"mem_mb\": 4096"), std::string::npos);
}

TEST(EventTraceTest, KindAndLayerNamesAreStable) {
  // The JSONL schema is consumed by external scripts: renaming an event kind
  // is a breaking change and must be deliberate.
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kCascadeStage), "cascade_stage");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kSparkPolicy), "spark_policy");
  EXPECT_STREQ(TraceEventKindName(TraceEventKind::kOvercommitEnter),
               "overcommit_enter");
  EXPECT_STREQ(CascadeLayerName(CascadeLayer::kGuestOs), "guest_os");
  EXPECT_STREQ(CascadeLayerName(CascadeLayer::kHypervisor), "hypervisor");
}

TEST(EventTraceTest, ChunkedStorageIndexesAcrossChunkBoundaries) {
  // Records live in chunks of TraceEventView::kChunkRecords; indexing
  // and iteration must be seamless across the boundaries.
  EventTrace trace;
  const size_t count = TraceEventView::kChunkRecords * 3 + 17;
  for (size_t i = 0; i < count; ++i) {
    trace.RecordAt(static_cast<double>(i), TraceEventKind::kDeflation,
                   CascadeLayer::kNone, static_cast<int64_t>(i), -1,
                   ResourceVector::Zero(), ResourceVector::Zero(),
                   static_cast<int32_t>(i % 7));
  }
  const TraceEventView view = trace.events();
  ASSERT_EQ(view.size(), count);
  for (const size_t i : {size_t{0}, TraceEventView::kChunkRecords - 1,
                         TraceEventView::kChunkRecords,
                         2 * TraceEventView::kChunkRecords + 5, count - 1}) {
    EXPECT_DOUBLE_EQ(view[i].time, static_cast<double>(i)) << "record " << i;
    EXPECT_EQ(view[i].vm, static_cast<int64_t>(i));
  }
  size_t seen = 0;
  for (const TraceEventRecord& e : view) {
    EXPECT_DOUBLE_EQ(e.time, static_cast<double>(seen));
    ++seen;
  }
  EXPECT_EQ(seen, count);
}

TEST(EventTraceTest, ClearRecyclesChunksWithoutLosingNewRecords) {
  EventTrace trace;
  for (int round = 0; round < 5; ++round) {
    for (size_t i = 0; i < TraceEventView::kChunkRecords + 3; ++i) {
      trace.RecordAt(1.0, TraceEventKind::kPlacement, CascadeLayer::kNone, 1, 2,
                     ResourceVector::Zero(), ResourceVector::Zero(), round);
    }
    EXPECT_EQ(trace.size(), TraceEventView::kChunkRecords + 3);
    EXPECT_EQ(trace.events()[0].outcome, round);
    trace.Clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_TRUE(trace.events().empty());
  }
}

TEST(EventTraceTest, RestoreEventsRoundTripsAcrossChunkBoundary) {
  EventTrace trace;
  std::vector<TraceEventRecord> records;
  for (size_t i = 0; i < TraceEventView::kChunkRecords + 9; ++i) {
    TraceEventRecord r;
    r.time = static_cast<double>(i) * 0.5;
    r.kind = TraceEventKind::kReinflation;
    r.vm = static_cast<int64_t>(i);
    records.push_back(r);
  }
  trace.RecordAt(99.0, TraceEventKind::kDeflation, CascadeLayer::kNone, 7, 8,
                 ResourceVector::Zero(), ResourceVector::Zero(), 0);
  trace.RestoreEvents(records);
  ASSERT_EQ(trace.size(), records.size());  // pre-restore records discarded
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace.events()[i].time, records[i].time);
    EXPECT_EQ(trace.events()[i].vm, records[i].vm);
  }
}

TEST(TelemetryContextTest, ClockScopeBindsAndClears) {
  TelemetryContext telemetry;
  EXPECT_DOUBLE_EQ(telemetry.Now(), 0.0);
  {
    double now = 5.0;
    TelemetryClockScope scope(&telemetry, [&now] { return now; });
    EXPECT_DOUBLE_EQ(telemetry.Now(), 5.0);
    now = 6.0;
    EXPECT_DOUBLE_EQ(telemetry.Now(), 6.0);
  }
  // Out of scope: the clock must be unbound (the lambda above is dead).
  EXPECT_DOUBLE_EQ(telemetry.Now(), 0.0);
  // A null context is fine -- producers and scopes are nullable everywhere.
  TelemetryClockScope null_scope(nullptr, [] { return 1.0; });
}

}  // namespace
}  // namespace defl

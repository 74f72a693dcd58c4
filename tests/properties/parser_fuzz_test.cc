// Structure-aware fuzzing of the durable-artifact parsers -- snapshot
// blobs, write-ahead journals, CSV traces -- plus the operator-text parsers
// (what-if query scripts and sweep grids, DESIGN.md §15; workload spec
// files, DESIGN.md §16).
// The durability layer's whole promise rests on these readers being total --
// any byte damage a crash or a disk can produce must come back as a clean
// Result error (or a truncated torn tail, for the WAL), never a crash,
// hang, or silently wrong state.
// Mutations are seeded from DEFL_FAULT_SEED so CI's seed matrix explores
// fresh damage each leg; a checked-in corpus of crafted regression inputs
// (tests/corpus/) pins the known-nasty shapes: bit flips that must trip the
// checksum, truncations at every layer, and lying length fields whose
// checksums are VALID but whose semantics are not.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/cluster/sim_session.h"
#include "src/cluster/trace_io.h"
#include "src/common/atomic_file.h"
#include "src/common/rng.h"
#include "src/common/sim_options.h"
#include "src/service/query.h"
#include "src/service/sweep.h"
#include "src/sim/snapshot_io.h"
#include "src/sim/wal_io.h"

namespace defl {
namespace {

#ifndef DEFL_SOURCE_DIR
#error "build must define DEFL_SOURCE_DIR"
#endif

uint64_t TestSeed() {
  const char* env = std::getenv("DEFL_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

// A small but real session snapshot: every subsystem section is present.
std::string ValidSnapshotBytes() {
  ClusterSimConfig config;
  config.num_servers = 4;
  config.server_capacity = ResourceVector(16.0, 64.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 1800.0;
  config.trace.max_lifetime_s = 900.0;
  config.trace.seed = 7;
  config.trace =
      WithTargetLoad(config.trace, 1.4, config.num_servers, config.server_capacity);
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(600.0);
  return session.value().SnapshotBytes();
}

std::string ValidWalBytes() {
  std::string image = EncodeWalHeader();
  for (int i = 1; i <= 10; ++i) {
    image += EncodeWalRecord(WalRecord::StepUntil(100.0 * i));
    if (i % 3 == 0) {
      image += EncodeWalRecord(
          WalRecord::Checkpoint(static_cast<uint64_t>(i), 100.0 * i, 17 * i,
                                0xabcdULL + static_cast<uint64_t>(i), 4096));
    }
  }
  return image;
}

// Applies one seeded structural mutation; returns true if `bytes` changed.
bool Mutate(Rng& rng, std::string& bytes) {
  if (bytes.empty()) {
    return false;
  }
  const std::string before = bytes;
  switch (rng.UniformInt(0, 3)) {
    case 0: {  // single bit flip
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.UniformInt(0, 7)));
      break;
    }
    case 1:  // truncate anywhere, including inside the header or footer
      bytes.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1)));
      break;
    case 2: {  // stomp 8 bytes: the shape of a corrupted length/checksum field
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      for (size_t i = at; i < bytes.size() && i < at + 8; ++i) {
        bytes[i] = static_cast<char>(rng.UniformInt(0, 255));
      }
      break;
    }
    default:  // append garbage past the real end
      for (int i = 0; i < 16; ++i) {
        bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      break;
  }
  return bytes != before;
}

TEST(ParserFuzzTest, DamagedSnapshotsAlwaysRejectCleanly) {
  const std::string valid = ValidSnapshotBytes();
  ASSERT_FALSE(valid.empty());
  Rng rng(TestSeed() ^ 0x5a47f001ULL);
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    if (!Mutate(rng, mutated)) {
      continue;
    }
    const Result<SimSession> restored = SimSession::RestoreView(mutated, {});
    // The blob is checksummed end to end: ANY change must be caught.
    ASSERT_FALSE(restored.ok())
        << "trial " << trial << ": a damaged snapshot restored";
    EXPECT_FALSE(restored.error().empty());
    ++rejected;
  }
  EXPECT_GT(rejected, 150);  // the mutator isn't degenerate
}

TEST(ParserFuzzTest, DamagedWalsNeverGainRecords) {
  const std::string valid = ValidWalBytes();
  const Result<WalReadResult> baseline = DecodeWal(valid);
  ASSERT_TRUE(baseline.ok()) << baseline.error();
  const size_t baseline_records = baseline.value().records.size();
  Rng rng(TestSeed() ^ 0x3a11f002ULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    if (!Mutate(rng, mutated)) {
      continue;
    }
    const Result<WalReadResult> read = DecodeWal(mutated);
    if (!read.ok()) {
      // Hard errors only come from header damage.
      EXPECT_FALSE(read.error().empty());
      continue;
    }
    // Torn-tail tolerance must only ever SHRINK the accepted prefix; damage
    // can never mint records (appended garbage lacks a valid checksum).
    EXPECT_LE(read.value().records.size(), baseline_records + 0u)
        << "trial " << trial;
    EXPECT_LE(read.value().valid_bytes, mutated.size());
  }
}

TEST(ParserFuzzTest, DamagedTracesErrorOrParseNeverCrash) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 20; ++i) {
    TraceEvent e;
    e.arrival_s = 60.0 * i;
    e.lifetime_s = 600.0;
    e.spec.name = "vm-" + std::to_string(i);
    e.spec.size = ResourceVector(2.0, 2048.0, 10.0, 10.0);
    e.spec.min_size = ResourceVector(1.0, 1024.0, 5.0, 5.0);
    events.push_back(e);
  }
  const std::string valid = TraceToCsv(events);
  ASSERT_TRUE(ParseTraceCsv(valid).ok());
  Rng rng(TestSeed() ^ 0x77ace003ULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    if (!Mutate(rng, mutated)) {
      continue;
    }
    // Text is not checksummed, so some mutations legitimately still parse
    // (e.g. a digit changed inside a float). The property is totality: a
    // clean verdict either way, and errors carry a message.
    const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(mutated);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().empty());
    }
  }
}

TEST(ParserFuzzTest, DamagedQueryScriptsErrorOrParseNeverCrash) {
  // Operator text is not checksummed, so some mutations still parse (e.g. a
  // digit changed inside a count). The property is totality: every mutation
  // gets a clean verdict, and rejections carry a non-empty message.
  const std::string valid =
      "# capacity probe\n"
      "place count=20 cpu=2 mem=4096 prio=low hours=0.5\n"
      "fail fraction=0.3 seed=11\n"
      "overcommit target=1.6 cpu=2 mem=4096 limit=200\n"
      "run hours=2\n"
      "slo p99=80 fraction=0.4 policy=slo period=300 hours=1\n";
  ASSERT_TRUE(ParseQueryScript(valid).ok());
  Rng rng(TestSeed() ^ 0x9e81f004ULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    if (!Mutate(rng, mutated)) {
      continue;
    }
    const Result<std::vector<WhatIfQuery>> parsed = ParseQueryScript(mutated);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().empty()) << "trial " << trial;
    }
  }
}

TEST(ParserFuzzTest, DamagedWorkloadSpecsErrorOrParseNeverCrash) {
  // The unified workload spec (DESIGN.md §16) is two total layers: the
  // line-oriented parser, then semantic validation. Both must return a clean
  // verdict for any damage, and every rejection names a line or key.
  const std::string valid =
      "# interactive serving over diurnal arrivals\n"
      "load = 1.8\n"
      "duration-h = 6\n"
      "low-pri-fraction = 0.6\n"
      "seed = 42\n"
      "diurnal = on\n"
      "diurnal-amplitude = 0.6\n"
      "arrival-seed = 17\n"
      "interactive = on\n"
      "interactive-fraction = 0.45\n"
      "slo-p99-ms = 80\n"
      "slo-policy = slo\n"
      "rate-rps-per-cpu = 60\n";
  {
    const Result<WorkloadSpec> spec = ParseWorkloadSpec(valid, "spec");
    ASSERT_TRUE(spec.ok()) << spec.error();
    ASSERT_TRUE(ValidateWorkloadSpec(spec.value(), "spec").ok());
  }
  Rng rng(TestSeed() ^ 0x1c0df006ULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    if (!Mutate(rng, mutated)) {
      continue;
    }
    const Result<WorkloadSpec> parsed = ParseWorkloadSpec(mutated, "spec");
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().empty()) << "trial " << trial;
      continue;
    }
    // Some mutations survive the parser (a digit changed inside a number);
    // validation must still give a clean verdict on whatever got through.
    const Result<bool> checked = ValidateWorkloadSpec(parsed.value(), "spec");
    if (!checked.ok()) {
      EXPECT_FALSE(checked.error().empty()) << "trial " << trial;
    }
  }
}

TEST(ParserFuzzTest, DamagedSweepGridsErrorOrParseNeverCrash) {
  const std::string valid =
      "policy = best-fit, first-fit, 2-choices\n"
      "fail-fraction = 0.0, 0.25\n"
      "overcommit-target = 1.2, 1.8\n"
      "intensity = 0.5, 1.0\n"
      "hours = 1\n"
      "shape = 2:4096\n"
      "fail-seed = 7\n"
      "limit = 300\n";
  ASSERT_TRUE(ParseSweepGrid(valid).ok());
  Rng rng(TestSeed() ^ 0x6a1df005ULL);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    if (!Mutate(rng, mutated)) {
      continue;
    }
    const Result<SweepGrid> parsed = ParseSweepGrid(mutated);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().empty()) << "trial " << trial;
    }
  }
}

// The checked-in corpus: regression inputs crafted to probe specific layers
// (checksum, framing, semantic bounds). File-name prefix selects the parser;
// every corpus member must be handled without a crash, and the snapshot- and
// trace-corpus members must all be REJECTED (they are all damaged).
TEST(ParserFuzzTest, CheckedInCorpusIsHandledCleanly) {
  const std::string dir = DEFL_SOURCE_DIR "/tests/corpus";
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name == "README.md") {
      continue;  // the corpus index, not a corpus member
    }
    const Result<std::string> bytes = ReadFileToString(entry.path().string());
    ASSERT_TRUE(bytes.ok()) << bytes.error();
    ++seen;
    if (name.rfind("snapshot_", 0) == 0) {
      const Result<SimSession> restored = SimSession::RestoreView(bytes.value(), {});
      EXPECT_FALSE(restored.ok()) << name << " restored but is damaged";
      if (!restored.ok()) {
        EXPECT_FALSE(restored.error().empty()) << name;
      }
    } else if (name.rfind("wal_", 0) == 0) {
      const Result<WalReadResult> read = DecodeWal(bytes.value());
      if (read.ok()) {
        // Damaged journals may keep a valid prefix, but must flag the tear.
        EXPECT_TRUE(read.value().torn) << name << " decoded without a tear";
        EXPECT_FALSE(read.value().torn_reason.empty()) << name;
      } else {
        EXPECT_FALSE(read.error().empty()) << name;
      }
    } else if (name.rfind("trace_", 0) == 0) {
      const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(bytes.value());
      EXPECT_FALSE(parsed.ok()) << name << " parsed but is damaged";
    } else if (name.rfind("query_", 0) == 0) {
      const Result<std::vector<WhatIfQuery>> parsed =
          ParseQueryScript(bytes.value());
      EXPECT_FALSE(parsed.ok()) << name << " parsed but is malformed";
      if (!parsed.ok()) {
        EXPECT_FALSE(parsed.error().empty()) << name;
      }
    } else if (name.rfind("grid_", 0) == 0) {
      const Result<SweepGrid> parsed = ParseSweepGrid(bytes.value());
      EXPECT_FALSE(parsed.ok()) << name << " parsed but is malformed";
      if (!parsed.ok()) {
        EXPECT_FALSE(parsed.error().empty()) << name;
      }
    } else if (name.rfind("workload_", 0) == 0) {
      // Workload-spec corpus members are rejected by one of the two layers:
      // the line parser or cross-key validation. Either way the error names
      // the offending line or key.
      const Result<WorkloadSpec> parsed = ParseWorkloadSpec(bytes.value(), name);
      if (parsed.ok()) {
        const Result<bool> checked = ValidateWorkloadSpec(parsed.value(), name);
        EXPECT_FALSE(checked.ok()) << name << " validated but is malformed";
        if (!checked.ok()) {
          EXPECT_FALSE(checked.error().empty()) << name;
        }
      } else {
        EXPECT_FALSE(parsed.error().empty()) << name;
      }
    } else {
      ADD_FAILURE() << "corpus file " << name
                    << " has no parser prefix "
                       "(snapshot_/wal_/trace_/query_/grid_/workload_)";
    }
  }
  EXPECT_GE(seen, 20) << "corpus went missing from " << dir;
}

}  // namespace
}  // namespace defl

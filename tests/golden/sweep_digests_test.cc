// Golden digests for the what-if sweep orchestrator (DESIGN.md §15): both
// shipped sweep grids (examples/*.grid), run against a FIXED-SEED mid-run
// snapshot, are hashed and pinned against tests/golden/sweep_digests.txt --
// any change to a sweep's observable report (cell metrics, ordering,
// rendering) shows up in review as a digest diff. A worker-count-invariance
// leg proves the report is byte-identical at 1 vs 8 workers, so the digest
// pins ONE canonical report, not one-per-schedule.
//
// To regenerate after an intended output change:
//   DEFL_UPDATE_GOLDEN=1 ./sweep_digests_test
// then copy the printed block into tests/golden/sweep_digests.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/sim_session.h"
#include "src/service/sweep.h"
#include "src/service/whatif.h"
#include "src/telemetry/telemetry.h"

namespace defl {
namespace {

#ifndef DEFL_SOURCE_DIR
#error "build must define DEFL_SOURCE_DIR"
#endif

constexpr const char* kDigestFile =
    DEFL_SOURCE_DIR "/tests/golden/sweep_digests.txt";

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

// Fixed seed (not DEFL_FAULT_SEED): golden output must be one exact byte
// stream, identical on every CI leg.
std::string GoldenSnapshot() {
  ClusterSimConfig config;
  config.num_servers = 10;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.seed = 42;
  config.trace.duration_s = 4.0 * 3600.0;
  config.trace.max_lifetime_s = 2.0 * 3600.0;
  config.trace =
      WithTargetLoad(config.trace, 1.5, config.num_servers, config.server_capacity);
  config.reinflate_period_s = 600.0;
  Result<SimSession> session = SimSession::Open(config);
  EXPECT_TRUE(session.ok()) << session.error();
  session.value().StepUntil(2.0 * 3600.0);
  return session.value().SnapshotBytes();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
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

class SweepDigestTest : public testing::TestWithParam<const char*> {};

TEST_P(SweepDigestTest, ReportIsWorkerInvariantAndMatchesDigest) {
  const std::string name = GetParam();
  const std::string grid_text =
      ReadFileOrDie(std::string(DEFL_SOURCE_DIR "/examples/") + name + ".grid");
  Result<SweepGrid> grid = ParseSweepGrid(grid_text);
  ASSERT_TRUE(grid.ok()) << grid.error();

  Result<WhatIfService> service = WhatIfService::Load(GoldenSnapshot());
  ASSERT_TRUE(service.ok()) << service.error();
  SweepOrchestrator orchestrator(&service.value());

  Result<std::string> one = orchestrator.Run(grid.value(), 1);
  ASSERT_TRUE(one.ok()) << one.error();
  Result<std::string> eight = orchestrator.Run(grid.value(), 8);
  ASSERT_TRUE(eight.ok()) << eight.error();
  ASSERT_EQ(one.value(), eight.value())
      << name << ": sweep report differs between 1 and 8 workers";

  const std::string digest = HexDigest(Fnv1a64(one.value()));
  if (std::getenv("DEFL_UPDATE_GOLDEN") != nullptr) {
    std::printf("GOLDEN %s %s\n", name.c_str(), digest.c_str());
    GTEST_SKIP() << "DEFL_UPDATE_GOLDEN set; printed new digest";
  }
  const std::map<std::string, std::string> digests = LoadDigests();
  const auto it = digests.find(name);
  ASSERT_NE(it, digests.end())
      << "no golden digest for sweep '" << name << "' in " << kDigestFile
      << "; run with DEFL_UPDATE_GOLDEN=1 and check the line in";
  EXPECT_EQ(it->second, digest)
      << "sweep '" << name << "' report changed; if intended, regenerate "
      << kDigestFile << " with DEFL_UPDATE_GOLDEN=1";
}

// The admitted counts of a sweep report's cell lines, in cell order.
std::vector<int64_t> AdmittedPerCell(const std::string& report) {
  std::vector<int64_t> admitted;
  const std::string key = "\"admitted\":";
  for (size_t at = report.find(key); at != std::string::npos;
       at = report.find(key, at + key.size())) {
    admitted.push_back(std::stoll(report.substr(at + key.size())));
  }
  return admitted;
}

TEST(SweepCellTest, HugeIntensitySaturatesTheAdmissionBudget) {
  // intensity * limit = 1e303 does not fit an int64 admission budget. The
  // budget saturates, so the cell admits until the overcommit target or
  // the first bounce, exactly like a merely large intensity.
  Result<SweepGrid> grid = ParseSweepGrid(
      "intensity = 1e9, 1e300\n"
      "overcommit-target = 4\n"
      "limit = 1000\n"
      "shape = 1:4096\n");
  ASSERT_TRUE(grid.ok()) << grid.error();
  Result<WhatIfService> service = WhatIfService::Load(GoldenSnapshot());
  ASSERT_TRUE(service.ok()) << service.error();
  SweepOrchestrator orchestrator(&service.value());
  Result<std::string> report = orchestrator.Run(grid.value(), 1);
  ASSERT_TRUE(report.ok()) << report.error();
  const std::vector<int64_t> admitted = AdmittedPerCell(report.value());
  ASSERT_EQ(admitted.size(), 2u) << report.value();
  EXPECT_GT(admitted[0], 0) << report.value();
  EXPECT_EQ(admitted[1], admitted[0]) << report.value();
}

INSTANTIATE_TEST_SUITE_P(Grids, SweepDigestTest,
                         testing::Values("sweep_policies", "sweep_faults"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace defl

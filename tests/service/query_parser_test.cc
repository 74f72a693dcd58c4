// Adversarial tests for the what-if request parsers (DESIGN.md §15): the
// query-line/script parser and the sweep-grid parser must be total --
// malformed, truncated, duplicate-keyed, unknown-keyed, and out-of-range
// requests all fail with a DESCRIPTIVE error (naming the offending key,
// value, and -- in scripts -- line), never a crash or a silently-defaulted
// field. The service is a long-lived process fed operator input; a typo
// must come back as an error line, not take the fleet planner down.
#include <gtest/gtest.h>

#include <string>

#include "src/service/query.h"
#include "src/service/sweep.h"

namespace defl {
namespace {

// Asserts the parse fails and the error mentions every given fragment.
template <typename T>
void ExpectErrorMentions(const Result<T>& result,
                         std::initializer_list<const char*> fragments) {
  ASSERT_FALSE(result.ok()) << "expected a parse error";
  for (const char* fragment : fragments) {
    EXPECT_NE(result.error().find(fragment), std::string::npos)
        << "error '" << result.error() << "' does not mention '" << fragment
        << "'";
  }
}

TEST(QueryParserTest, ParsesEveryKind) {
  Result<WhatIfQuery> place =
      ParseQuery("place count=40 cpu=2 mem=4096 disk=10 net=5 prio=high hours=1.5");
  ASSERT_TRUE(place.ok()) << place.error();
  EXPECT_EQ(place.value().kind, QueryKind::kPlace);
  EXPECT_EQ(place.value().count, 40);
  EXPECT_DOUBLE_EQ(place.value().shape.cpu(), 2.0);
  EXPECT_DOUBLE_EQ(place.value().shape.memory_mb(), 4096.0);
  EXPECT_DOUBLE_EQ(place.value().shape.disk_bw(), 10.0);
  EXPECT_DOUBLE_EQ(place.value().shape.net_bw(), 5.0);
  EXPECT_EQ(place.value().priority, VmPriority::kHigh);
  EXPECT_DOUBLE_EQ(place.value().hours, 1.5);

  Result<WhatIfQuery> fail = ParseQuery("fail fraction=0.25 seed=9");
  ASSERT_TRUE(fail.ok()) << fail.error();
  EXPECT_EQ(fail.value().kind, QueryKind::kFail);
  EXPECT_DOUBLE_EQ(fail.value().fraction, 0.25);
  EXPECT_EQ(fail.value().seed, 9u);

  Result<WhatIfQuery> oc = ParseQuery("overcommit target=1.5 cpu=2 limit=100");
  ASSERT_TRUE(oc.ok()) << oc.error();
  EXPECT_EQ(oc.value().kind, QueryKind::kOvercommit);
  EXPECT_DOUBLE_EQ(oc.value().target, 1.5);
  EXPECT_EQ(oc.value().limit, 100);

  Result<WhatIfQuery> run = ParseQuery("run hours=6");
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(run.value().kind, QueryKind::kRun);
  EXPECT_DOUBLE_EQ(run.value().hours, 6.0);

  Result<WhatIfQuery> slo =
      ParseQuery("slo p99=80 fraction=0.4 policy=uniform period=300 hours=2");
  ASSERT_TRUE(slo.ok()) << slo.error();
  EXPECT_EQ(slo.value().kind, QueryKind::kSlo);
  EXPECT_DOUBLE_EQ(slo.value().slo_p99_ms, 80.0);
  EXPECT_DOUBLE_EQ(slo.value().mix_fraction, 0.4);
  EXPECT_EQ(slo.value().slo_policy, 0);
  EXPECT_DOUBLE_EQ(slo.value().slo_period_s, 300.0);
  EXPECT_DOUBLE_EQ(slo.value().hours, 2.0);

  // Every override is optional: a bare `slo hours=` run keeps the snapshot's
  // settings, marked by -1 sentinels.
  Result<WhatIfQuery> bare = ParseQuery("slo hours=1");
  ASSERT_TRUE(bare.ok()) << bare.error();
  EXPECT_DOUBLE_EQ(bare.value().slo_p99_ms, -1.0);
  EXPECT_DOUBLE_EQ(bare.value().mix_fraction, -1.0);
  EXPECT_EQ(bare.value().slo_policy, -1);
  EXPECT_DOUBLE_EQ(bare.value().slo_period_s, -1.0);
}

TEST(QueryParserTest, RejectsEmptyAndUnknownKinds) {
  ExpectErrorMentions(ParseQuery(""), {"empty query"});
  ExpectErrorMentions(ParseQuery("   \t "), {"empty query"});
  ExpectErrorMentions(ParseQuery("deflate fraction=0.5"),
                      {"unknown query kind", "deflate"});
}

TEST(QueryParserTest, RejectsMalformedFields) {
  ExpectErrorMentions(ParseQuery("place count"), {"malformed field", "count"});
  ExpectErrorMentions(ParseQuery("place count="), {"malformed field"});
  ExpectErrorMentions(ParseQuery("place =5 cpu=2"), {"malformed field", "=5"});
}

TEST(QueryParserTest, RejectsUnknownAndDuplicateKeys) {
  ExpectErrorMentions(ParseQuery("place coun=5 cpu=2"),
                      {"unknown key", "coun", "place"});
  ExpectErrorMentions(ParseQuery("run hours=1 fraction=0.5"),
                      {"unknown key", "fraction", "run"});
  ExpectErrorMentions(ParseQuery("place count=5 count=6 cpu=2"),
                      {"duplicate key", "count"});
}

TEST(QueryParserTest, RejectsUnparsableNumbers) {
  ExpectErrorMentions(ParseQuery("fail fraction=0.5x"),
                      {"cannot parse", "fraction", "0.5x"});
  ExpectErrorMentions(ParseQuery("place count=ten cpu=2"),
                      {"cannot parse", "count", "ten"});
  ExpectErrorMentions(ParseQuery("fail fraction=0.1 seed=-3"),
                      {"cannot parse", "seed", "-3"});
  // Numbers are finite and carry no `+` sign: nan, inf, overflowing literals
  // and +5 never reach the range checks.
  ExpectErrorMentions(ParseQuery("fail fraction=nan seed=3"),
                      {"cannot parse", "fraction", "nan"});
  ExpectErrorMentions(ParseQuery("slo hours=inf"), {"cannot parse", "hours", "inf"});
  ExpectErrorMentions(ParseQuery("run hours=-inf"),
                      {"cannot parse", "hours", "-inf"});
  ExpectErrorMentions(ParseQuery("place count=5 cpu=1e999"),
                      {"cannot parse", "cpu", "1e999"});
  ExpectErrorMentions(ParseQuery("place count=+5 cpu=2"),
                      {"cannot parse", "count", "+5"});
}

TEST(QueryParserTest, RejectsMissingRequiredKeys) {
  ExpectErrorMentions(ParseQuery("place cpu=2"), {"place", "count"});
  ExpectErrorMentions(ParseQuery("place count=5"), {"place", "cpu"});
  ExpectErrorMentions(ParseQuery("fail seed=3"), {"fail", "fraction"});
  ExpectErrorMentions(ParseQuery("overcommit cpu=2"),
                      {"overcommit", "target"});
  ExpectErrorMentions(ParseQuery("run"), {"run", "hours"});
}

TEST(QueryParserTest, RejectsOutOfRangeValues) {
  ExpectErrorMentions(ParseQuery("fail fraction=1.5"), {"fraction", "[0, 1]"});
  ExpectErrorMentions(ParseQuery("fail fraction=-0.1"), {"fraction", "[0, 1]"});
  ExpectErrorMentions(ParseQuery("place count=0 cpu=2"), {"count", ">= 1"});
  ExpectErrorMentions(ParseQuery("place count=5 cpu=0"), {"cpu", "> 0"});
  ExpectErrorMentions(ParseQuery("place count=5 cpu=2 mem=-1"), {">= 0"});
  ExpectErrorMentions(ParseQuery("overcommit target=0 cpu=2"),
                      {"target", "> 0"});
  ExpectErrorMentions(ParseQuery("overcommit target=1.5 cpu=2 limit=0"),
                      {"limit", ">= 1"});
  ExpectErrorMentions(ParseQuery("run hours=-2"), {"hours", ">= 0"});
  ExpectErrorMentions(ParseQuery("run hours=0"), {"run", "hours"});
  ExpectErrorMentions(ParseQuery("place count=5 cpu=2 prio=urgent"),
                      {"prio", "urgent"});
}

TEST(QueryParserTest, SloKindGuardsItsAllowListAndRanges) {
  ExpectErrorMentions(ParseQuery("slo p99=80"), {"slo", "hours"});
  ExpectErrorMentions(ParseQuery("slo hours=0"), {"slo", "hours"});
  ExpectErrorMentions(ParseQuery("slo hours=1 p99=0"), {"p99", "> 0"});
  ExpectErrorMentions(ParseQuery("slo hours=1 fraction=1.5"),
                      {"fraction", "[0, 1]"});
  ExpectErrorMentions(ParseQuery("slo hours=1 period=-60"),
                      {"period", "> 0"});
  ExpectErrorMentions(ParseQuery("slo hours=1 policy=aggressive"),
                      {"policy", "aggressive", "slo or uniform"});
  // The allow-list is strict per kind: slo takes no VM shape, and the other
  // kinds do not inherit the slo keys.
  ExpectErrorMentions(ParseQuery("slo hours=1 cpu=2"),
                      {"unknown key", "cpu", "slo"});
  ExpectErrorMentions(ParseQuery("run hours=1 p99=80"),
                      {"unknown key", "p99", "run"});
}

TEST(QueryParserTest, SloTickCountIsCapped) {
  // One line must not be able to wedge the server: hours * 3600 / period
  // control ticks are capped at kMaxCadenceTicks, and the error names both keys.
  ExpectErrorMentions(ParseQuery("slo period=0.00001 hours=1"),
                      {"hours=1", "period=0.00001", "control ticks", "100000"});
  ExpectErrorMentions(ParseQuery("slo period=1e-300 hours=1"),
                      {"hours=", "period="});
  ExpectErrorMentions(ParseQuery("slo period=nan hours=1"),
                      {"cannot parse", "period", "nan"});
  // Exactly at the cap is allowed; one tick more is not.
  EXPECT_TRUE(ParseQuery("slo period=36 hours=1000").ok());
  EXPECT_FALSE(ParseQuery("slo period=36 hours=1000.01").ok());
  // Without period= the snapshot's own period applies, so hours alone is
  // never rejected by the cap.
  EXPECT_TRUE(ParseQuery("slo hours=100000").ok());
  // Shipped queries stay far below it.
  EXPECT_TRUE(ParseQuery("slo p99=80 period=300 hours=6").ok());
}

TEST(QueryParserTest, LaunchCountsAreCapped) {
  // A place count= or overcommit limit= above kMaxQueryLaunches would keep
  // the server busy for minutes; the error names the key and the cap.
  ExpectErrorMentions(ParseQuery("place count=1000000000 cpu=0.001 mem=1"),
                      {"count=1000000000", "cap of 10000 launches"});
  ExpectErrorMentions(
      ParseQuery("overcommit target=1000 limit=1000000000 cpu=0.001 mem=1"),
      {"limit=1000000000", "cap of 10000 launches"});
  // Exactly at the cap is allowed; one more is not.
  EXPECT_TRUE(ParseQuery("place count=10000 cpu=1").ok());
  EXPECT_FALSE(ParseQuery("place count=10001 cpu=1").ok());
  EXPECT_TRUE(ParseQuery("overcommit target=2 cpu=1 limit=10000").ok());
  EXPECT_FALSE(ParseQuery("overcommit target=2 cpu=1 limit=10001").ok());
  // The default limit is the cap.
  EXPECT_EQ(ParseQuery("overcommit target=2 cpu=1").value().limit, kMaxQueryLaunches);
}

TEST(QueryParserTest, ScriptSkipsCommentsAndNumbersErrors) {
  Result<std::vector<WhatIfQuery>> script = ParseQueryScript(
      "# capacity check\n"
      "\n"
      "place count=5 cpu=2\r\n"
      "run hours=1\n");
  ASSERT_TRUE(script.ok()) << script.error();
  EXPECT_EQ(script.value().size(), 2u);

  ExpectErrorMentions(
      ParseQueryScript("place count=5 cpu=2\n\n# fine\nfail fraction=2.0\n"),
      {"line 4", "fraction"});
}

TEST(QueryParserTest, EmptyScriptIsAnError) {
  ExpectErrorMentions(ParseQueryScript(""), {"no queries"});
  ExpectErrorMentions(ParseQueryScript("# only comments\n\n"), {"no queries"});
}

TEST(SweepGridTest, ParsesAxesScalarsAndDefaults) {
  Result<SweepGrid> grid = ParseSweepGrid(
      "# grid\n"
      "policy = best-fit, first-fit, 2-choices\n"
      "fail-fraction = 0.0, 0.5\n"
      "overcommit-target = 1.2\n"
      "intensity = 0.5, 1.0, 2.0\n"
      "hours = 2\n"
      "shape = 4:8192:10:5\n"
      "fail-seed = 11\n"
      "limit = 500\n");
  ASSERT_TRUE(grid.ok()) << grid.error();
  EXPECT_EQ(grid.value().policies.size(), 3u);
  EXPECT_EQ(grid.value().Cells(), 3 * 2 * 1 * 3);
  EXPECT_DOUBLE_EQ(grid.value().hours, 2.0);
  EXPECT_DOUBLE_EQ(grid.value().shape.cpu(), 4.0);
  EXPECT_DOUBLE_EQ(grid.value().shape.net_bw(), 5.0);
  EXPECT_EQ(grid.value().fail_seed, 11u);
  EXPECT_EQ(grid.value().limit, 500);

  // Unspecified axes collapse to a single default value, so a one-line grid
  // is a valid (1-cell) sweep.
  Result<SweepGrid> minimal = ParseSweepGrid("policy = best-fit\n");
  ASSERT_TRUE(minimal.ok()) << minimal.error();
  EXPECT_EQ(minimal.value().Cells(), 1);
}

TEST(SweepGridTest, RejectsMalformedInput) {
  ExpectErrorMentions(ParseSweepGrid("policy best-fit\n"),
                      {"sweep grid:1:", "key = value"});
  ExpectErrorMentions(ParseSweepGrid("policy = best-fit\nwat = 7\n"),
                      {"sweep grid:2:", "unknown key", "wat"});
  ExpectErrorMentions(
      ParseSweepGrid("policy = best-fit\npolicy = first-fit\n"),
      {"sweep grid:2:", "duplicate key", "policy"});
  ExpectErrorMentions(ParseSweepGrid("policy = worst-fit\n"),
                      {"unknown placement policy", "worst-fit"});
  ExpectErrorMentions(ParseSweepGrid("fail-fraction = 0.5, 1.5\n"),
                      {"fail-fraction", "[0, 1]"});
  ExpectErrorMentions(ParseSweepGrid("overcommit-target = 0\n"),
                      {"overcommit-target", "> 0"});
  ExpectErrorMentions(ParseSweepGrid("intensity = -1\n"),
                      {"intensity", ">= 0"});
  ExpectErrorMentions(ParseSweepGrid("shape = 2\n"), {"shape", "cpu:mem"});
  ExpectErrorMentions(ParseSweepGrid("shape = 0:4096\n"), {"cpu > 0"});
  ExpectErrorMentions(ParseSweepGrid("shape = 2:x\n"), {"shape", "x"});
  ExpectErrorMentions(ParseSweepGrid("limit = 0\n"), {"limit", ">= 1"});
  ExpectErrorMentions(ParseSweepGrid("hours = nope\n"), {"hours", "nope"});
  ExpectErrorMentions(ParseSweepGrid("fail-seed = -2\n"), {"fail-seed"});
  ExpectErrorMentions(ParseSweepGrid("hours = inf\n"), {"sweep grid:1:", "hours", "inf"});
  ExpectErrorMentions(ParseSweepGrid("fail-fraction = 0.5, nan\n"),
                      {"fail-fraction", "nan"});
  ExpectErrorMentions(ParseSweepGrid("intensity = -inf\n"), {"intensity", "-inf"});
  ExpectErrorMentions(ParseSweepGrid("overcommit-target = 1e999\n"),
                      {"overcommit-target", "1e999"});
  ExpectErrorMentions(ParseSweepGrid("policy =\n"),
                      {"sweep grid:1:", "'policy' has no value"});
}

TEST(SweepGridTest, LimitIsCappedLikeAQuerysLaunches) {
  // A tiny shape, an unreachable target and a billion admissions per cell
  // would launch VMs until memory ran out; the error names the line and cap.
  ExpectErrorMentions(ParseSweepGrid("shape = 0.000001:0\n"
                                     "overcommit-target = 1e9\n"
                                     "limit = 1000000000\n"),
                      {"sweep grid:3:", "limit=1000000000", "cap of 10000"});
  // Exactly at the cap is allowed; one more is not.
  EXPECT_EQ(ParseSweepGrid("limit = 10000\n").value().limit, kMaxQueryLaunches);
  EXPECT_FALSE(ParseSweepGrid("limit = 10001\n").ok());
}

TEST(SweepGridTest, HeaderExampleWithInlineCommentsParses) {
  // The grid documented in sweep.h, verbatim, comments and all.
  const Result<SweepGrid> commented = ParseSweepGrid(
      "policy = best-fit, 2-choices        # axis: future placement policy\n"
      "fail-fraction = 0.0, 0.25           # axis: servers crashed up front\n"
      "overcommit-target = 1.0, 1.5        # axis: admission stops at this OC\n"
      "intensity = 0.5, 1.0                # axis: scales the admission budget\n"
      "hours = 2                           # sim-hours each cell then runs\n"
      "shape = 2:4096                      # admitted VM size cpu:mem[:disk[:net]]\n"
      "fail-seed = 7                       # victim-draw seed (shared by cells)\n"
      "limit = 1000                        # admission budget at intensity 1.0\n");
  const Result<SweepGrid> bare = ParseSweepGrid(
      "policy = best-fit, 2-choices\n"
      "fail-fraction = 0.0, 0.25\n"
      "overcommit-target = 1.0, 1.5\n"
      "intensity = 0.5, 1.0\n"
      "hours = 2\n"
      "shape = 2:4096\n"
      "fail-seed = 7\n"
      "limit = 1000\n");
  ASSERT_TRUE(commented.ok()) << commented.error();
  ASSERT_TRUE(bare.ok()) << bare.error();
  const SweepGrid& a = commented.value();
  const SweepGrid& b = bare.value();
  EXPECT_EQ(a.policies, (std::vector<PlacementPolicy>{PlacementPolicy::kBestFit,
                                                      PlacementPolicy::kTwoChoices}));
  EXPECT_EQ(a.policies, b.policies);
  EXPECT_EQ(a.fail_fractions, b.fail_fractions);
  EXPECT_EQ(a.overcommit_targets, b.overcommit_targets);
  EXPECT_EQ(a.intensities, b.intensities);
  EXPECT_EQ(a.hours, b.hours);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.fail_seed, b.fail_seed);
  EXPECT_EQ(a.limit, b.limit);
  EXPECT_EQ(a.Cells(), 16);
}

}  // namespace
}  // namespace defl

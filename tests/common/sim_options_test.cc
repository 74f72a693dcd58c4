#include "src/common/sim_options.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace defl {
namespace {

Result<std::vector<std::string>> ParseArgs(SimOptionsParser& options,
                                           std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return options.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(SimOptionsTest, SharedFlagsParseIntoCommon) {
  SimOptionsParser options("a test tool");
  ASSERT_TRUE(ParseArgs(options, {"--metrics-out=m.json", "--trace-out=t.jsonl"}).ok());
  EXPECT_EQ(options.common().metrics_out, "m.json");
  EXPECT_EQ(options.common().trace_out, "t.jsonl");
}

TEST(SimOptionsTest, ToolSpecificFlagsRegisterAlongside) {
  SimOptionsParser options("a test tool");
  int workers = 4;
  options.flags().AddInt("workers", "worker count", &workers);
  ASSERT_TRUE(ParseArgs(options, {"--workers=9", "--metrics-out=m.json"}).ok());
  EXPECT_EQ(workers, 9);
  EXPECT_EQ(options.common().metrics_out, "m.json");
}

TEST(SimOptionsTest, SharedFlagsAppearFirstInHelp) {
  SimOptionsParser options("my program banner");
  int workers = 4;
  options.flags().AddInt("workers", "worker count", &workers);
  const auto result = ParseArgs(options, {"--help"});
  ASSERT_FALSE(result.ok());
  const std::string& usage = result.error();
  EXPECT_NE(usage.find("my program banner"), std::string::npos);
  const size_t metrics_pos = usage.find("--metrics-out");
  const size_t workers_pos = usage.find("--workers");
  ASSERT_NE(metrics_pos, std::string::npos);
  ASSERT_NE(workers_pos, std::string::npos);
  EXPECT_LT(metrics_pos, workers_pos);
}

TEST(SimOptionsTest, InheritsParserStrictness) {
  SimOptionsParser options("a test tool");
  // Duplicates and near-miss names fail the same way plain FlagParser does.
  EXPECT_FALSE(
      ParseArgs(options, {"--metrics-out=a.json", "--metrics-out=b.json"}).ok());
  const auto result = ParseArgs(options, {"--metrics-uot=a.json"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("did you mean --metrics-out?"), std::string::npos)
      << result.error();
}

TEST(SimOptionsTest, RejectFlagCombinationWording) {
  const Result<bool> both = RejectFlagCombination(
      "trace-file", true, "save-trace", true, "nothing new to save");
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.error(),
            "--trace-file and --save-trace cannot be combined "
            "(nothing new to save)");
  EXPECT_TRUE(RejectFlagCombination("a", true, "b", false, "r").ok());
  EXPECT_TRUE(RejectFlagCombination("a", false, "b", true, "r").ok());
  EXPECT_TRUE(RejectFlagCombination("a", false, "b", false, "r").ok());
}

TEST(WorkloadSpecTest, ParsesFullSpecWithCommentsAndProvenance) {
  const std::string text =
      "# interactive scenario\n"
      "load = 1.8          # peak-mean target\n"
      "duration-h = 24\r\n"
      "diurnal = on\n"
      "diurnal-period-h=12\n"
      "\n"
      "interactive = true\n"
      "slo-p99-ms = 80\n"
      "slo-policy = uniform\n";
  const Result<WorkloadSpec> parsed = ParseWorkloadSpec(text, "spec.workload");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const WorkloadSpec& spec = parsed.value();
  EXPECT_DOUBLE_EQ(spec.load, 1.8);
  EXPECT_DOUBLE_EQ(spec.duration_h, 24.0);
  EXPECT_TRUE(spec.diurnal);
  EXPECT_DOUBLE_EQ(spec.diurnal_period_h, 12.0);
  EXPECT_TRUE(spec.interactive);
  EXPECT_DOUBLE_EQ(spec.slo_p99_ms, 80.0);
  EXPECT_EQ(spec.slo_policy, "uniform");
  // Untouched keys keep their defaults and record no provenance.
  EXPECT_DOUBLE_EQ(spec.low_pri_fraction, 0.6);
  EXPECT_FALSE(spec.Has("low-pri-fraction"));
  // Provenance carries the 1-based source line of each set key.
  EXPECT_EQ(spec.provenance.at("load"), 2);
  EXPECT_EQ(spec.provenance.at("slo-policy"), 9);
  EXPECT_TRUE(ValidateWorkloadSpec(spec, "spec.workload").ok());
}

TEST(WorkloadSpecTest, ParserRejectionsCarryLineNumbers) {
  const struct {
    const char* text;
    const char* want;
  } cases[] = {
      {"load 1.8\n", "spec:1: expected 'key = value'"},
      {"load = 1.8\n= 2\n", "spec:2: setting has no key before '='"},
      {"load =\n", "spec:1: 'load' has no value"},
      {"load = fast\n", "spec:1: 'load': bad number 'fast'"},
      {"duration-h = inf\n", "spec:1: 'duration-h': bad number 'inf'"},
      {"load = nan\n", "spec:1: 'load': bad number 'nan'"},
      {"diurnal-phase-h = -inf\n", "spec:1: 'diurnal-phase-h': bad number '-inf'"},
      {"load = 1e999\n", "spec:1: 'load': bad number '1e999'"},
      {"diurnal = maybe\n", "spec:1: 'diurnal': bad boolean 'maybe'"},
      {"seed = -3\n", "spec:1: 'seed': bad unsigned integer '-3'"},
      {"capacity = 5\n", "spec:1: unknown key 'capacity'"},
      {"load = 1\nload = 2\n",
       "spec:2: duplicate key 'load' (first set on line 1)"},
      {"# only comments\n\n", "spec: workload spec has no settings"},
  };
  for (const auto& c : cases) {
    const Result<WorkloadSpec> parsed = ParseWorkloadSpec(c.text, "spec");
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.error().find(c.want), 0u)
        << "for input <" << c.text << ">: " << parsed.error();
  }
}

TEST(WorkloadSpecTest, ValidationOwnsPairwiseExclusions) {
  // A replayed trace excludes the diurnal generator, with the message citing
  // the offending source lines.
  const Result<WorkloadSpec> spec =
      ParseWorkloadSpec("trace-file = t.csv\ndiurnal = on\n", "spec");
  ASSERT_TRUE(spec.ok()) << spec.error();
  const Result<bool> valid = ValidateWorkloadSpec(spec.value(), "spec");
  ASSERT_FALSE(valid.ok());
  EXPECT_EQ(valid.error(),
            "spec:1: 'trace-file' and spec:2: 'diurnal' cannot be combined "
            "(a replayed trace carries its own arrival times)");

  // Arrival knobs without the generator are a gating error...
  const Result<WorkloadSpec> orphan =
      ParseWorkloadSpec("burst-multiplier = 3\n", "spec");
  ASSERT_TRUE(orphan.ok());
  const Result<bool> orphan_valid = ValidateWorkloadSpec(orphan.value(), "spec");
  ASSERT_FALSE(orphan_valid.ok());
  EXPECT_NE(orphan_valid.error().find("requires diurnal"), std::string::npos);

  // ... and so are SLO knobs without the interactive mix.
  const Result<WorkloadSpec> slo =
      ParseWorkloadSpec("slo-p99-ms = 50\n", "spec");
  ASSERT_TRUE(slo.ok());
  const Result<bool> slo_valid = ValidateWorkloadSpec(slo.value(), "spec");
  ASSERT_FALSE(slo_valid.ok());
  EXPECT_EQ(slo_valid.error(), "spec:1: 'slo-p99-ms' requires interactive");
}

TEST(WorkloadSpecTest, ValidationRangeChecks) {
  const struct {
    const char* text;
    const char* want;
  } cases[] = {
      {"load = 0\n", "must be positive"},
      {"low-pri-fraction = 1.5\n", "must be in [0, 1]"},
      {"diurnal = on\ndiurnal-amplitude = -0.1\n", "must be in [0, 1]"},
      {"interactive = on\nslo-p99-ms = 0\n", "must be positive"},
      {"interactive = on\nslo-policy = aggressive\n",
       "must be 'slo' or 'uniform' (got 'aggressive')"},
      {"interactive = on\nrate-amplitude = 2\n", "must be in [0, 1]"},
      {"interactive = on\nrate-period-h = 0\n", "must be positive"},
      // duration-h * 3600 / slo-period-s control ticks are capped at
      // kMaxCadenceTicks; a key left at its default is named without a line.
      {"interactive = on\nslo-period-s = 1e-9\n",
       "spec:2: 'slo-period-s' fires 4.32e+13 times over the 12 h horizon (max 100000)"},
      {"interactive = on\nduration-h = 2000\n", "spec: 'slo-period-s' fires 1.2e+05 times"},
  };
  for (const auto& c : cases) {
    const Result<WorkloadSpec> parsed = ParseWorkloadSpec(c.text, "spec");
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    const Result<bool> valid = ValidateWorkloadSpec(parsed.value(), "spec");
    ASSERT_FALSE(valid.ok()) << c.text;
    EXPECT_NE(valid.error().find(c.want), std::string::npos)
        << "for input <" << c.text << ">: " << valid.error();
  }
  // Exactly at the tick cap is allowed; without the interactive mix there
  // are no ticks to count.
  for (const char* text : {"interactive = on\nduration-h = 1000\nslo-period-s = 36\n",
                           "duration-h = 2000\n"}) {
    const Result<WorkloadSpec> parsed = ParseWorkloadSpec(text, "spec");
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_TRUE(ValidateWorkloadSpec(parsed.value(), "spec").ok()) << text;
  }
}

}  // namespace
}  // namespace defl

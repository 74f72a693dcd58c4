#include "src/common/flags.h"

#include <gtest/gtest.h>

namespace defl {
namespace {

struct Flags {
  std::string name = "default";
  double ratio = 1.5;
  int count = 10;
  bool verbose = false;
};

FlagParser MakeParser(Flags& f) {
  FlagParser parser("test tool");
  parser.AddString("name", "a name", &f.name);
  parser.AddDouble("ratio", "a ratio", &f.ratio);
  parser.AddInt("count", "a count", &f.count);
  parser.AddBool("verbose", "chatty", &f.verbose);
  return parser;
}

Result<std::vector<std::string>> ParseArgs(FlagParser& parser,
                                     std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parser.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, DefaultsSurviveEmptyArgs) {
  Flags f;
  FlagParser parser = MakeParser(f);
  ASSERT_TRUE(ParseArgs(parser, {}).ok());
  EXPECT_EQ(f.name, "default");
  EXPECT_DOUBLE_EQ(f.ratio, 1.5);
  EXPECT_EQ(f.count, 10);
  EXPECT_FALSE(f.verbose);
}

TEST(FlagsTest, EqualsAndSpaceSyntax) {
  Flags f;
  FlagParser parser = MakeParser(f);
  ASSERT_TRUE(ParseArgs(parser, {"--name=alice", "--ratio", "2.25", "--count=42"}).ok());
  EXPECT_EQ(f.name, "alice");
  EXPECT_DOUBLE_EQ(f.ratio, 2.25);
  EXPECT_EQ(f.count, 42);
}

TEST(FlagsTest, BoolForms) {
  Flags f;
  FlagParser parser = MakeParser(f);
  ASSERT_TRUE(ParseArgs(parser, {"--verbose"}).ok());
  EXPECT_TRUE(f.verbose);
  ASSERT_TRUE(ParseArgs(parser, {"--verbose=false"}).ok());
  EXPECT_FALSE(f.verbose);
  ASSERT_TRUE(ParseArgs(parser, {"--verbose=1"}).ok());
  EXPECT_TRUE(f.verbose);
}

TEST(FlagsTest, PositionalArgumentsReturned) {
  Flags f;
  FlagParser parser = MakeParser(f);
  const auto result = ParseArgs(parser, {"input.csv", "--count=3", "output.csv"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), (std::vector<std::string>{"input.csv", "output.csv"}));
}

TEST(FlagsTest, Errors) {
  Flags f;
  FlagParser parser = MakeParser(f);
  EXPECT_FALSE(ParseArgs(parser, {"--nope=1"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--ratio=abc"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--count=1.5"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--verbose=maybe"}).ok());
  EXPECT_FALSE(ParseArgs(parser, {"--name"}).ok());  // missing value
  // A double flag takes finite values only; the error names the flag.
  for (const char* value : {"nan", "inf", "-inf", "1e999"}) {
    const std::string arg = std::string("--ratio=") + value;
    const auto result = ParseArgs(parser, {arg.c_str()});
    ASSERT_FALSE(result.ok()) << arg;
    EXPECT_EQ(result.error(), std::string("--ratio: bad number '") + value + "'");
  }
  EXPECT_DOUBLE_EQ(f.ratio, 1.5);
  // An int flag takes int's range only (2^32 + 1 would narrow to 1); the
  // bounds themselves parse.
  const auto wide = ParseArgs(parser, {"--count=4294967297"});
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.error(), "--count: 4294967297 is out of range (max 2147483647)");
  EXPECT_FALSE(ParseArgs(parser, {"--count=-2147483649"}).ok());
  EXPECT_EQ(f.count, 10);
  ASSERT_TRUE(ParseArgs(parser, {"--count=-2147483648"}).ok());
  EXPECT_EQ(f.count, -2147483647 - 1);
  ASSERT_TRUE(ParseArgs(parser, {"--count=2147483647"}).ok());
  EXPECT_EQ(f.count, 2147483647);
}

TEST(FlagsTest, DuplicateFlagRejected) {
  Flags f;
  FlagParser parser = MakeParser(f);
  const auto result = ParseArgs(parser, {"--count=3", "--count=4"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("--count"), std::string::npos) << result.error();
  EXPECT_NE(result.error().find("more than once"), std::string::npos)
      << result.error();
  // Mixed =/space syntax and underscore/dash spellings are still duplicates.
  EXPECT_FALSE(ParseArgs(parser, {"--ratio", "2.0", "--ratio=3.0"}).ok());
}

TEST(FlagsTest, DuplicateDetectionResetsBetweenParses) {
  Flags f;
  FlagParser parser = MakeParser(f);
  ASSERT_TRUE(ParseArgs(parser, {"--count=3"}).ok());
  // A second Parse on the same parser sees a fresh slate.
  ASSERT_TRUE(ParseArgs(parser, {"--count=5"}).ok());
  EXPECT_EQ(f.count, 5);
}

TEST(FlagsTest, UnknownFlagSuggestsNearestName) {
  Flags f;
  FlagParser parser = MakeParser(f);
  const auto result = ParseArgs(parser, {"--ratoi=2.0"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown flag --ratoi"), std::string::npos)
      << result.error();
  EXPECT_NE(result.error().find("did you mean --ratio?"), std::string::npos)
      << result.error();
}

TEST(FlagsTest, UnknownFlagWithNoCloseMatchGetsNoSuggestion) {
  Flags f;
  FlagParser parser = MakeParser(f);
  const auto result = ParseArgs(parser, {"--zzzzzzzz=1"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("unknown flag --zzzzzzzz"), std::string::npos)
      << result.error();
  EXPECT_EQ(result.error().find("did you mean"), std::string::npos)
      << result.error();
}

TEST(FlagsTest, WasSetDistinguishesExplicitFromDefault) {
  Flags f;
  FlagParser parser = MakeParser(f);
  EXPECT_FALSE(parser.WasSet("ratio"));  // false before Parse()
  // Setting a flag to its default value still counts as explicitly set.
  ASSERT_TRUE(ParseArgs(parser, {"--ratio=1.5", "--count", "7"}).ok());
  EXPECT_TRUE(parser.WasSet("ratio"));
  EXPECT_TRUE(parser.WasSet("count"));
  EXPECT_FALSE(parser.WasSet("name"));
  EXPECT_FALSE(parser.WasSet("verbose"));
  EXPECT_FALSE(parser.WasSet("no-such-flag"));
  Flags g;
  FlagParser other = MakeParser(g);
  ASSERT_TRUE(ParseArgs(other, {"--name=x"}).ok());
  EXPECT_TRUE(other.WasSet("name"));
}

TEST(FlagsTest, HelpYieldsUsage) {
  Flags f;
  FlagParser parser = MakeParser(f);
  const auto result = ParseArgs(parser, {"--help"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("test tool"), std::string::npos);
  EXPECT_NE(result.error().find("--ratio"), std::string::npos);
  EXPECT_NE(result.error().find("default: 10"), std::string::npos);
}

}  // namespace
}  // namespace defl

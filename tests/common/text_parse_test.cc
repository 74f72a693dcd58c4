#include "src/common/text_parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace defl {
namespace {

TEST(TextParseTest, DoublesAreWholeStringAndFinite) {
  const struct {
    const char* text;
    double want;
  } good[] = {{"0", 0.0},     {"-2.5", -2.5}, {"1e3", 1000.0}, {"1E-3", 0.001},
              {"1.", 1.0},    {".5", 0.5},    {"1e+5", 1e5},   {"-0", -0.0}};
  for (const auto& c : good) {
    double out = 7.0;
    ASSERT_TRUE(ParseDouble(c.text, &out)) << c.text;
    EXPECT_DOUBLE_EQ(out, c.want) << c.text;
  }
  for (const char* text : {"", " 1", "1 ", "+1", "1.5x", "0x1p3", "1,5", "nan",
                           "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999"}) {
    double out = 7.0;
    EXPECT_FALSE(ParseDouble(text, &out)) << text;
    EXPECT_EQ(out, 7.0) << "a rejected parse must leave the output alone: " << text;
  }
}

TEST(TextParseTest, IntegersAreWholeStringAndInRange) {
  int64_t i = 0;
  ASSERT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  ASSERT_TRUE(ParseInt64("9223372036854775807", &i));
  EXPECT_EQ(i, std::numeric_limits<int64_t>::max());
  for (const char* text : {"", "+5", "1.5", "1e3", " 5", "5 ", "9223372036854775808"}) {
    EXPECT_FALSE(ParseInt64(text, &i)) << text;
  }

  uint64_t u = 0;
  ASSERT_TRUE(ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<uint64_t>::max());
  for (const char* text : {"", "-1", "-0", "+1", "18446744073709551616", "0x10"}) {
    EXPECT_FALSE(ParseUint64(text, &u)) << text;
  }
}

TEST(TextParseTest, TrimDropsSpacesAndTabsAtBothEnds) {
  EXPECT_EQ(Trim(" \tkey = value \t "), "key = value");
  EXPECT_EQ(Trim("bare"), "bare");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(TextParseTest, KeyValuesKeepLinesAndDropComments) {
  const Result<std::vector<KeyValue>> read = ReadKeyValues(
      "# header comment\n"
      "\n"
      "load = 1.8   # inline comment\r\n"
      "  name=a=b\n"
      "\t\n"
      "policy = best-fit, 2-choices\n",
      "spec");
  ASSERT_TRUE(read.ok()) << read.error();
  const std::vector<KeyValue>& settings = read.value();
  ASSERT_EQ(settings.size(), 3u);
  EXPECT_EQ(settings[0].line, 3);
  EXPECT_EQ(settings[0].key, "load");
  EXPECT_EQ(settings[0].value, "1.8");
  EXPECT_EQ(settings[1].line, 4);
  EXPECT_EQ(settings[1].key, "name");
  EXPECT_EQ(settings[1].value, "a=b");  // split at the first '='
  EXPECT_EQ(settings[2].line, 6);
  EXPECT_EQ(settings[2].value, "best-fit, 2-choices");

  const Result<std::vector<KeyValue>> empty = ReadKeyValues("# nothing\n\n", "spec");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(TextParseTest, KeyValueErrorsNameSourceLineAndKey) {
  const struct {
    const char* text;
    const char* want;
  } cases[] = {
      {"load 1.8\n", "grid:1: expected 'key = value', got 'load 1.8'"},
      {"a = 1\n= 2\n", "grid:2: setting has no key before '='"},
      {"load =   # nothing left\n", "grid:1: 'load' has no value"},
      {"load = 1\n\nload = 2\n", "grid:3: duplicate key 'load' (first set on line 1)"},
  };
  for (const auto& c : cases) {
    const Result<std::vector<KeyValue>> read = ReadKeyValues(c.text, "grid");
    ASSERT_FALSE(read.ok()) << c.text;
    EXPECT_EQ(read.error(), c.want);
  }
}

}  // namespace
}  // namespace defl

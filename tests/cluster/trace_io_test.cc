#include "src/cluster/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/atomic_file.h"

namespace defl {
namespace {

std::vector<TraceEvent> SampleTrace() {
  TraceConfig config;
  config.duration_s = 3600.0;
  config.arrival_rate_per_s = 0.02;
  config.seed = 13;
  return GenerateTrace(config);
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const std::vector<TraceEvent> original = SampleTrace();
  ASSERT_FALSE(original.empty());
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(TraceToCsv(original));
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const std::vector<TraceEvent>& loaded = parsed.value();
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR(loaded[i].arrival_s, original[i].arrival_s, 1e-3);
    EXPECT_NEAR(loaded[i].lifetime_s, original[i].lifetime_s, 1e-3);
    EXPECT_EQ(loaded[i].spec.name, original[i].spec.name);
    EXPECT_EQ(loaded[i].spec.priority, original[i].spec.priority);
    EXPECT_NEAR(loaded[i].spec.size.cpu(), original[i].spec.size.cpu(), 1e-9);
    EXPECT_NEAR(loaded[i].spec.min_size.memory_mb(),
                original[i].spec.min_size.memory_mb(), 1e-3);
  }
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "\n"
      "10,600,vm-a,low,4,16384,100,500,1,4096,25,125\n"
      "# another\n"
      "20,1200,vm-b,high,2,8192,50,250,0,0,0,0\n";
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].spec.priority, VmPriority::kLow);
  EXPECT_EQ(parsed.value()[1].spec.priority, VmPriority::kHigh);
  EXPECT_DOUBLE_EQ(parsed.value()[1].arrival_s, 20.0);
}

TEST(TraceIoTest, RejectsMalformedRows) {
  const char* bad_cases[] = {
      "10,600,vm,low,4,16384,100,500,1,4096,25\n",          // 11 fields
      "10,600,vm,medium,4,16384,100,500,1,4096,25,125\n",   // bad priority
      "10,xyz,vm,low,4,16384,100,500,1,4096,25,125\n",      // bad number
      "10,600,vm,low,4,16384,100,500,8,32768,200,1000\n",   // min > size
      "10,-5,vm,low,4,16384,100,500,1,4096,25,125\n",       // non-positive life
      "nan,600,vm,low,4,16384,100,500,1,4096,25,125\n",     // non-finite fields
      "10,inf,vm,low,4,16384,100,500,1,4096,25,125\n",
      "10,600,vm,low,4,16384,100,500,-inf,4096,25,125\n",
      "10,600,vm,low,4,1e999,100,500,1,4096,25,125\n",
  };
  for (const char* text : bad_cases) {
    EXPECT_FALSE(ParseTraceCsv(text).ok()) << text;
  }
}

TEST(TraceIoTest, RejectsUnsortedArrivals) {
  const std::string text =
      "20,600,vm-a,low,4,16384,100,500,1,4096,25,125\n"
      "10,600,vm-b,low,4,16384,100,500,1,4096,25,125\n";
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("not sorted"), std::string::npos);
}

// A replay starts its clock at 0: an earlier first arrival would step the
// clock back.
TEST(TraceIoTest, RejectsArrivalsBeforeTimeZero) {
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(
      "-0.5,600,vm-a,low,4,16384,100,500,1,4096,25,125\n"
      "0,600,vm-b,low,4,16384,100,500,1,4096,25,125\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "line 1: arrival time is negative");
  ASSERT_TRUE(ParseTraceCsv("0,600,vm-a,low,4,16384,100,500,1,4096,25,125\n").ok());
}

TEST(TraceIoTest, ErrorsNameTheLine) {
  const std::string text =
      "10,600,vm-a,low,4,16384,100,500,1,4096,25,125\n"
      "oops\n";
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("line 2"), std::string::npos);

  // A nan arrival compares false against everything, so only the number
  // parser can stop it.
  const Result<std::vector<TraceEvent>> nan_arrival = ParseTraceCsv(
      "10,600,vm-a,low,4,16384,100,500,1,4096,25,125\n"
      "nan,600,vm-b,low,4,16384,100,500,1,4096,25,125\n");
  ASSERT_FALSE(nan_arrival.ok());
  EXPECT_EQ(nan_arrival.error(), "line 2: bad number 'nan'");
}

// A save is an atomic replace: it leaves exactly TraceToCsv's bytes and no
// "<path>.tmp", and the reload holds the same events (at the CSV's
// precision, so re-serializing gives the same bytes).
TEST(TraceIoTest, FileRoundTrip) {
  const std::vector<TraceEvent> original = SampleTrace();
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  const Result<bool> saved = SaveTraceFile(original, path);
  ASSERT_TRUE(saved.ok()) << saved.error();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.error();
  EXPECT_EQ(bytes.value(), TraceToCsv(original));
  const Result<std::vector<TraceEvent>> loaded = LoadTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().size(), original.size());
  EXPECT_EQ(TraceToCsv(loaded.value()), bytes.value());
}

TEST(TraceIoTest, SaveIntoAMissingDirectoryFails) {
  const std::string path = ::testing::TempDir() + "/no_such_dir/trace.csv";
  const Result<bool> saved = SaveTraceFile(SampleTrace(), path);
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.error().find(path), std::string::npos) << saved.error();
}

TEST(TraceIoTest, MissingFileIsAnError) {
  EXPECT_FALSE(LoadTraceFile("/nonexistent/path/trace.csv").ok());
}

TEST(TraceIoTest, EmptyInputIsAnEmptyTrace) {
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

// Every record TraceToCsv emits ends in '\n', but hand-authored or
// editor-stripped files may legitimately end without one. An unterminated
// final line that still forms a complete valid record (or a comment) loads
// normally; only a genuinely short or garbled tail is rejected, with the
// possible truncation called out so the error doesn't misdirect.
TEST(TraceIoTest, AcceptsCompleteFinalRecordWithoutNewline) {
  const std::string good =
      "10,600,vm-a,low,4,16384,100,500,1,4096,25,125\n";
  const char* valid_tails[] = {
      "20,600,vm-b,low,4,16384,100,500,1,4096,25,125",  // full record, no '\n'
      "# trailing comment without newline",
  };
  for (const char* tail : valid_tails) {
    const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(good + tail);
    ASSERT_TRUE(parsed.ok()) << tail << ": " << parsed.error();
  }
}

TEST(TraceIoTest, RejectsGarbledFinalRecordAsPossibleTruncation) {
  const std::string good =
      "10,600,vm-a,low,4,16384,100,500,1,4096,25,125\n";
  // Tails cut mid-record: fields missing, or the last number left dangling
  // at a separator.
  const char* truncated_tails[] = {
      "20,600,vm-b,low,4,16384,100,500",     // fields missing
      "20,600,vm-b,low,4,16384,100,500,1,",  // cut at a comma
  };
  for (const char* tail : truncated_tails) {
    const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(good + tail);
    ASSERT_FALSE(parsed.ok()) << tail;
    EXPECT_NE(parsed.error().find("possible truncated record at EOF"),
              std::string::npos)
        << parsed.error();
    EXPECT_NE(parsed.error().find("line 2"), std::string::npos) << parsed.error();
  }
}

TEST(TraceIoTest, TruncatedFileRoundTripIsRejected) {
  const std::vector<TraceEvent> original = SampleTrace();
  ASSERT_FALSE(original.empty());
  std::string text = TraceToCsv(original);
  ASSERT_TRUE(ParseTraceCsv(text).ok());
  // Dropping only the final newline leaves a complete record: still loads.
  text.pop_back();
  ASSERT_TRUE(ParseTraceCsv(text).ok());
  // Cutting into the record itself does not.
  text.resize(text.rfind(','));
  const Result<std::vector<TraceEvent>> parsed = ParseTraceCsv(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("possible truncated record at EOF"),
            std::string::npos)
      << parsed.error();
}

}  // namespace
}  // namespace defl

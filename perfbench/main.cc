// perfbench: runs one benchmark workload in this process and prints one JSON
// record of raw per-pass values as its last stdout line. run.py builds it,
// checks the digests and turns the record into the benchmark's result.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --data-dir=DIR [--snapshot=FILE] [--spans-out=FILE]
//   perfbench --make-snapshot=FILE --seed=N     (whatif_restore's base fleet)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_core.h"
#include "workloads.h"

namespace {

using perfbench::PassRecord;
using perfbench::WorkloadReport;

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

void PrintRecord(const perfbench::RunOptions& options, const WorkloadReport& r) {
  std::string out = "{\"workload\":\"" + options.workload + "\"";
  char buf[512];
  std::snprintf(buf, sizeof(buf), ",\"seed\":%" PRIu64 ",\"trace\":%d", options.seed,
                options.trace ? 1 : 0);
  out += buf;
  out += ",\"passes\":[";
  for (size_t i = 0; i < r.passes.size(); ++i) {
    const PassRecord& p = r.passes[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"traced\":%s,\"wall_s\":%.9g,\"fsyncs\":%" PRId64
                  ",\"fsync_s\":%.9g,\"events\":%" PRId64
                  ",\"ops\":%" PRId64 ",\"failed_ops\":%" PRId64 ",\"queries\":%" PRId64
                  ",\"query_tail_pct\":%g,\"query_p50_ms\":%.9g,\"query_p90_ms\":%.9g"
                  ",\"digest\":\"%s\"}",
                  i > 0 ? "," : "", p.traced ? "true" : "false", p.wall_s, p.fsyncs,
                  p.fsync_s, p.events, p.ops, p.failed_ops, p.queries,
                  perfbench::HighestReportablePercentile(static_cast<size_t>(p.queries)),
                  p.query_p50_ms, p.query_p90_ms, p.digest.c_str());
    out += buf;
  }
  out += "],\"setup_s\":[";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i > 0 ? "," : "", r.setup_s[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "],\"peak_rss_mb\":%.9g,\"span_coverage\":%.9g,\"per_layer\":{",
                perfbench::PeakRssMb(), r.span_coverage);
  out += buf;
  const auto& values = r.per_layer.values;
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", i > 0 ? "," : "",
                  values[i].first.c_str(), values[i].second);
    out += buf;
  }
  out += "},\"unreportable\":[";
  for (size_t i = 0; i < r.per_layer.unreportable.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + r.per_layer.unreportable[i] + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string spans_out;
  std::string make_snapshot;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Usage(("malformed argument '" + arg + "'").c_str());
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      options.trace = value == "1";
    } else if (key == "data-dir") {
      options.data_dir = value;
    } else if (key == "snapshot") {
      options.snapshot = value;
    } else if (key == "spans-out") {
      spans_out = value;
    } else if (key == "make-snapshot") {
      make_snapshot = value;
    } else {
      return Usage(("unknown flag --" + key).c_str());
    }
  }

  if (!make_snapshot.empty()) {
    const defl::Result<bool> made = perfbench::MakeWhatIfSnapshot(options.seed, make_snapshot);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", made.error().c_str());
      return 1;
    }
    return 0;
  }
  if (options.data_dir.empty() || !(options.seconds > 0.0)) {
    return Usage("--data-dir and a positive --seconds are required");
  }

  perfbench::SpanRecorder spans;
  const defl::Result<WorkloadReport> report =
      perfbench::RunWorkload(options, options.trace ? &spans : nullptr);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", report.error().c_str());
    return 1;
  }
  if (options.trace && !spans_out.empty() && !spans.WriteJsonl(spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  PrintRecord(options, report.value());
  return 0;
}

#include "src/cluster/trace_io.h"

#include <sstream>

#include "src/common/atomic_file.h"
#include "src/common/text_parse.h"

namespace defl {
namespace {

constexpr const char* kHeader =
    "# arrival_s,lifetime_s,name,priority,cpus,memory_mb,disk_bw,net_bw,"
    "min_cpus,min_memory_mb,min_disk_bw,min_net_bw";

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) {
    fields.push_back(field);
  }
  return fields;
}

// Parses one non-comment record line; enforces field shape and the rules
// every trace event keeps (TraceEventError) against last_arrival.
Result<TraceEvent> ParseRecord(const std::string& line, int line_no,
                               double last_arrival) {
  const std::vector<std::string> fields = SplitCsv(line);
  if (fields.size() != 12) {
    return Error{"line " + std::to_string(line_no) + ": expected 12 fields, got " +
                 std::to_string(fields.size())};
  }
  TraceEvent event;
  double numbers[10] = {};
  // Numeric fields: 0,1 then 4..11 (2 = name, 3 = priority).
  const int numeric_indexes[10] = {0, 1, 4, 5, 6, 7, 8, 9, 10, 11};
  for (int i = 0; i < 10; ++i) {
    const std::string& field = fields[static_cast<size_t>(numeric_indexes[i])];
    if (!ParseDouble(field, &numbers[i])) {
      return Error{"line " + std::to_string(line_no) + ": bad number '" + field + "'"};
    }
  }
  event.arrival_s = numbers[0];
  event.lifetime_s = numbers[1];
  event.spec.name = fields[2];
  if (fields[3] == "low") {
    event.spec.priority = VmPriority::kLow;
  } else if (fields[3] == "high") {
    event.spec.priority = VmPriority::kHigh;
  } else {
    return Error{"line " + std::to_string(line_no) + ": bad priority '" + fields[3] +
                 "'"};
  }
  event.spec.size = ResourceVector(numbers[2], numbers[3], numbers[4], numbers[5]);
  event.spec.min_size = ResourceVector(numbers[6], numbers[7], numbers[8], numbers[9]);
  if (const char* reason = TraceEventError(event, last_arrival)) {
    return Error{"line " + std::to_string(line_no) + ": " + reason};
  }
  return event;
}

}  // namespace

std::string TraceToCsv(const std::vector<TraceEvent>& trace) {
  std::ostringstream out;
  out << kHeader << "\n";
  out.precision(12);  // round-trip fidelity for times and sizes
  for (const TraceEvent& e : trace) {
    out << e.arrival_s << ',' << e.lifetime_s << ',' << e.spec.name << ','
        << (e.spec.priority == VmPriority::kLow ? "low" : "high") << ','
        << e.spec.size.cpu() << ',' << e.spec.size.memory_mb() << ','
        << e.spec.size.disk_bw() << ',' << e.spec.size.net_bw() << ','
        << e.spec.min_size.cpu() << ',' << e.spec.min_size.memory_mb() << ','
        << e.spec.min_size.disk_bw() << ',' << e.spec.min_size.net_bw() << "\n";
  }
  return std::move(out).str();
}

Result<std::vector<TraceEvent>> ParseTraceCsv(const std::string& text) {
  std::vector<TraceEvent> trace;
  int line_no = 0;
  double last_arrival = 0.0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t end = text.find('\n', pos);
    // TraceToCsv terminates every record with '\n', so content that runs
    // into EOF without one may be a truncated write. Hand-authored or
    // editor-stripped files are still accepted: an unterminated final line
    // that parses into a complete valid record loads normally, and only a
    // genuinely short or garbled tail is rejected -- with the truncation
    // called out, since a generic field-count error would misdirect.
    const bool unterminated = end == std::string::npos;
    const std::string line = text.substr(pos, end - pos);  // to EOF when unterminated
    pos = unterminated ? text.size() : end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    Result<TraceEvent> record = ParseRecord(line, line_no, last_arrival);
    if (!record.ok()) {
      if (unterminated) {
        return Error{record.error() +
                     " (possible truncated record at EOF: missing trailing newline)"};
      }
      return Error{record.error()};
    }
    last_arrival = record.value().arrival_s;
    trace.push_back(std::move(record).value());
  }
  return trace;
}

Result<bool> SaveTraceFile(const std::vector<TraceEvent>& trace,
                           const std::string& path) {
  return WriteFileAtomic(path, TraceToCsv(trace));
}

Result<std::vector<TraceEvent>> LoadTraceFile(const std::string& path) {
  const Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    return Error{text.error()};
  }
  return ParseTraceCsv(text.value());
}

}  // namespace defl

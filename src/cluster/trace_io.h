// Trace file I/O: the paper drives its cluster simulator from the
// Eucalyptus workload traces; this reader/writer lets users plug in their
// own traces in a simple CSV schema (one VM per line):
//
//   arrival_s,lifetime_s,name,priority,cpus,memory_mb,disk_bw,net_bw,
//   min_cpus,min_memory_mb,min_disk_bw,min_net_bw
//
// Lines starting with '#' are comments. Parsing is strict: malformed rows
// produce an error naming the line, not silently skewed experiments.
#ifndef SRC_CLUSTER_TRACE_IO_H_
#define SRC_CLUSTER_TRACE_IO_H_

#include <string>
#include <vector>

#include "src/cluster/trace.h"
#include "src/common/result.h"

namespace defl {

// Serializes a trace; the inverse of ParseTraceCsv.
std::string TraceToCsv(const std::vector<TraceEvent>& trace);

// Parses a CSV trace. Every row must keep TraceEventError's rules (sorted,
// non-negative arrivals among them); an error names the first bad line.
Result<std::vector<TraceEvent>> ParseTraceCsv(const std::string& text);

// File wrappers: the save goes through WriteFileAtomic, so a failed write
// is an error and leaves any earlier file whole; the load reads the whole
// file through ReadFileToString.
Result<bool> SaveTraceFile(const std::vector<TraceEvent>& trace,
                           const std::string& path);
Result<std::vector<TraceEvent>> LoadTraceFile(const std::string& path);

}  // namespace defl

#endif  // SRC_CLUSTER_TRACE_IO_H_

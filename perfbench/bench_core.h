// Measurement primitives of the repository benchmark: an in-memory span
// recorder, the percentile rule, the output digest, and the classification
// of one simulated cluster event by how the manager's counters moved.
#ifndef PERFBENCH_BENCH_CORE_H_
#define PERFBENCH_BENCH_CORE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cluster/cluster_manager.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Calls of fsync(2) made by this process so far and the host time spent
// blocked in them. perfbench links with --wrap=fsync, so every fsync of the
// library is timed.
struct FsyncTotals {
  int64_t calls = 0;
  int64_t ns = 0;
};
FsyncTotals FsyncSoFar();

// Host time since construction less the time blocked in fsync(2) meanwhile:
// the time the program itself took. How long a shared disk takes to flush
// depends on its other tenants; fsync calls and their time are reported on
// their own.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(NowNs()), fsync_ns_(FsyncSoFar().ns) {}
  double Seconds() const {
    return static_cast<double>(NowNs() - start_ns_ - (FsyncSoFar().ns - fsync_ns_)) * 1e-9;
  }
  double Ms() const { return Seconds() * 1e3; }

 private:
  int64_t start_ns_;
  int64_t fsync_ns_;
};

// One timed interval around a call into the library. `name` must be a
// string literal (spans store the pointer). Spans of one what-if query share
// `query_id`; -1 elsewhere.
struct Span {
  const char* name = "";
  int32_t parent = -1;
  int64_t query_id = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Keeps every span in memory; WriteJsonl() writes them out once, at exit.
class SpanRecorder {
 public:
  int32_t Begin(const char* name, int32_t parent = -1, int64_t query_id = -1);
  void End(int32_t span);
  int32_t Add(const char* name, int32_t parent, int64_t query_id,
              int64_t start_ns, int64_t end_ns);

  // Share of [begin_ns, end_ns) covered by top-level (parentless) spans.
  double TopLevelCoverage(int64_t begin_ns, int64_t end_ns) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Scoped span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int32_t parent = -1,
             int64_t query_id = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent, query_id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

// Nearest-rank percentile (p in (0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
// True when at least ten samples lie beyond the nearest-rank p-th percentile
// of n samples: the reporting rule for tail latencies.
bool PercentileReportable(size_t n, double p);
// The highest of p50, p90, p99, p99.9 and p99.99 that is reportable for n
// samples; 0 when even the median is not.
double HighestReportablePercentile(size_t n);

// Per-layer values of a traced run. A percentile goes in only when the
// percentile rule allows it; otherwise its name is listed as unreportable.
struct LayerMetrics {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> unreportable;

  void Add(std::string name, double value) { values.emplace_back(std::move(name), value); }
  void AddPercentile(std::string name, const std::vector<double>& samples, double p);
};

// FNV-1a-64 over a stream of typed values. Doubles enter as their %.17g
// rendering, so the digest is exact and platform-stable.
class Digest {
 public:
  void Add(std::string_view bytes);
  void AddInt(int64_t value);
  void AddDouble(double value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// Folds every counter, gauge and distribution (count, sum) of a registry in
// registration order.
void AddRegistry(Digest& digest, const defl::MetricsRegistry& metrics);
void AddCounters(Digest& digest, const defl::ClusterCounters& counters);

// What one simulated cluster event did, judged by the change it made to
// ClusterManager::counters().
enum class EventKind {
  kArrivalFit,      // launched without reclaiming anything
  kArrivalDeflate,  // launched after deflating co-tenants
  kArrivalPreempt,  // launched after preempting low-priority VMs
  kArrivalReject,   // could not be placed
  kCompletion,      // a VM finished
  kOther,           // ticks, faults, SLO checks
};
constexpr int kNumEventKinds = 6;
// "cluster.event.<kind>": the span name and metric prefix.
const char* EventKindName(EventKind kind);
EventKind ClassifyEvent(const defl::ClusterCounters& before,
                        const defl::ClusterCounters& after);

// Host time in µs of every event of a run, indexed by EventKind.
using EventSamples = std::array<std::vector<double>, kNumEventKinds>;
// cluster.event.<kind>.{count,total_s} per pass over `passes` passes, and
// .{p50_us,p99_us} where the percentile rule allows.
void AddEventKindMetrics(const EventSamples& samples, int passes, LayerMetrics& out);

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_CORE_H_

#include "bench_core.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace {

std::atomic<int64_t> fsync_calls{0};
std::atomic<int64_t> fsync_ns{0};

}  // namespace

// With -Wl,--wrap=fsync (CMakeLists.txt) every call of fsync lands here.
extern "C" int __real_fsync(int fd);
extern "C" int __wrap_fsync(int fd) {
  const int64_t start = perfbench::NowNs();
  const int result = __real_fsync(fd);
  fsync_ns += perfbench::NowNs() - start;
  ++fsync_calls;
  return result;
}

namespace perfbench {

FsyncTotals FsyncSoFar() {
  return FsyncTotals{fsync_calls.load(), fsync_ns.load()};
}

int32_t SpanRecorder::Begin(const char* name, int32_t parent, int64_t query_id) {
  spans_.push_back(Span{name, parent, query_id, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int32_t SpanRecorder::Add(const char* name, int32_t parent, int64_t query_id,
                          int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, parent, query_id, start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanRecorder::TopLevelCoverage(int64_t begin_ns, int64_t end_ns) const {
  if (end_ns <= begin_ns) {
    return 0.0;
  }
  int64_t covered = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) {
      covered += std::min(span.end_ns, end_ns) - std::max(span.start_ns, begin_ns);
    }
  }
  return static_cast<double>(covered) / static_cast<double>(end_ns - begin_ns);
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%" PRId32
                 ",\"query\":%" PRId64 ",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 i, s.name, s.parent, s.query_id, s.start_ns - origin,
                 s.end_ns - origin);
  }
  return std::fclose(out) == 0;
}

namespace {

// 1-based nearest rank of the p-th percentile of n samples. The epsilon keeps
// 99.9% of 10000 at rank 9990 despite rounding in p / 100 * n.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

bool PercentileReportable(size_t n, double p) {
  return n > 0 && n - NearestRank(n, p) >= 10;
}

double HighestReportablePercentile(size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (PercentileReportable(n, p)) {
      return p;
    }
  }
  return 0.0;
}

void LayerMetrics::AddPercentile(std::string name, const std::vector<double>& samples,
                                 double p) {
  if (PercentileReportable(samples.size(), p)) {
    values.emplace_back(std::move(name), Percentile(samples, p));
  } else {
    unreportable.push_back(std::move(name));
  }
}

void Digest::Add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  // Separator, so ("ab","c") and ("a","bc") differ.
  hash_ ^= 0xff;
  hash_ *= 1099511628211ULL;
}

void Digest::AddInt(int64_t value) { Add(std::to_string(value)); }

void Digest::AddDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Add(buf);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

void AddRegistry(Digest& digest, const defl::MetricsRegistry& metrics) {
  const defl::MetricsRegistry::State state = metrics.ExportState();
  for (const auto& [name, value] : state.counters) {
    digest.Add(name);
    digest.AddInt(value);
  }
  for (const auto& [name, value] : state.gauges) {
    digest.Add(name);
    digest.AddDouble(value);
  }
  for (const defl::MetricsRegistry::DistributionState& d : state.distributions) {
    digest.Add(d.name);
    digest.AddInt(d.count);
    digest.AddDouble(d.sum);
  }
}

void AddCounters(Digest& digest, const defl::ClusterCounters& c) {
  for (const int64_t v :
       {c.launched, c.launched_low_priority, c.rejected, c.preempted, c.completed,
        c.deflation_ops, c.crash_replaced, c.crash_preempted, c.crash_lost,
        c.server_crashes, c.server_recoveries}) {
    digest.AddInt(v);
  }
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kArrivalFit:
      return "cluster.event.arrival_fit";
    case EventKind::kArrivalDeflate:
      return "cluster.event.arrival_deflate";
    case EventKind::kArrivalPreempt:
      return "cluster.event.arrival_preempt";
    case EventKind::kArrivalReject:
      return "cluster.event.arrival_reject";
    case EventKind::kCompletion:
      return "cluster.event.completion";
    case EventKind::kOther:
      break;
  }
  return "cluster.event.other";
}

EventKind ClassifyEvent(const defl::ClusterCounters& before,
                        const defl::ClusterCounters& after) {
  if (after.rejected > before.rejected) {
    return EventKind::kArrivalReject;
  }
  if (after.launched > before.launched) {
    if (after.preempted > before.preempted) {
      return EventKind::kArrivalPreempt;
    }
    if (after.deflation_ops > before.deflation_ops) {
      return EventKind::kArrivalDeflate;
    }
    return EventKind::kArrivalFit;
  }
  if (after.completed > before.completed) {
    return EventKind::kCompletion;
  }
  return EventKind::kOther;
}

void AddEventKindMetrics(const EventSamples& samples, int passes, LayerMetrics& out) {
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  for (int k = 0; k < kNumEventKinds; ++k) {
    const std::string base = EventKindName(static_cast<EventKind>(k));
    const std::vector<double>& us = samples[static_cast<size_t>(k)];
    double total_s = 0.0;
    for (const double v : us) {
      total_s += v * 1e-6;
    }
    out.Add(base + ".count", static_cast<double>(us.size()) * per_pass);
    out.Add(base + ".total_s", total_s * per_pass);
    out.AddPercentile(base + ".p50_us", us, 50.0);
    out.AddPercentile(base + ".p99_us", us, 99.0);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

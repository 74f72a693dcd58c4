// The four benchmark workloads. Each drives the library's public API from
// this process, single-threaded, and builds every input from the seed.
//
//   cloud_2choices  SimSession over a generated diurnal trace, 2-choices
//   whatif_restore  WhatIfService answering a seeded query script, closed loop
//   durable_slo     DurableSession over the interactive mix with faults
//   spark_sweep     RunSparkExperiment over the fig6/fig7a matrix
//
// Every workload runs passes of a fixed amount of work until the run's time
// is spent. A "query" is one call of the workload's closed loop: a what-if
// query (parse + Answer), one simulated minute of SimSession::StepUntil, one
// 10-simulated-minute DurableSession::StepUntil, or one Spark experiment.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_core.h"
#include "src/cluster/cluster_sim.h"
#include "src/cluster/sim_session.h"
#include "src/common/result.h"

namespace perfbench {

constexpr uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  // Traced runs alternate untraced and traced passes; per-layer numbers come
  // from the traced ones, the overhead from comparing the two.
  bool trace = false;
  // Scratch directory for durable run directories.
  std::string data_dir;
  // whatif_restore: the base snapshot, made beforehand by MakeWhatIfSnapshot
  // in a separate process so its cost stays out of the workload.
  std::string snapshot;
};

struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;     // host time less fsync(2) waits (Stopwatch)
  int64_t fsyncs = 0;      // fsync(2) calls during the pass
  double fsync_s = 0.0;    // host time blocked in them
  int64_t events = 0;      // simulation events executed during the pass
  int64_t ops = 0;         // operations attempted
  int64_t failed_ops = 0;  // operations that returned an error
  std::string digest;      // digest of the pass's simulated outputs
  // Closed-loop call latencies of this pass (untraced passes only).
  int64_t queries = 0;
  double query_p50_ms = 0.0;
  double query_p90_ms = 0.0;
};

struct WorkloadReport {
  std::vector<PassRecord> passes;
  std::vector<double> setup_s;   // every set-up timed in the run
  LayerMetrics per_layer;        // traced runs only
  double span_coverage = 0.0;    // traced runs only
};

defl::Result<WorkloadReport> RunWorkload(const RunOptions& options,
                                         SpanRecorder* spans);

// Runs the best-fit base fleet of whatif_restore to mid-horizon and writes
// its snapshot.
defl::Result<bool> MakeWhatIfSnapshot(uint64_t seed, const std::string& path);

// Exposed for the self-tests.
std::vector<std::string> WhatIfScript(uint64_t seed);
defl::ClusterSimConfig CloudConfig(uint64_t seed, int servers, int target_vms);
// Steps `session` to its horizon one event at a time, timing each event
// under the kind its counter delta gives it.
EventSamples ClassifyAllEvents(defl::SimSession& session);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>

#include "src/cluster/durable_session.h"
#include "src/cluster/placement.h"
#include "src/cluster/sim_session.h"
#include "src/cluster/trace.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/service/query.h"
#include "src/service/whatif.h"
#include "src/sim/snapshot_io.h"
#include "src/spark/experiment.h"
#include "src/telemetry/json_util.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

using defl::ClusterSimConfig;
using defl::ClusterSimResult;
using defl::Error;
using defl::MetricsRegistry;
using defl::Result;
using defl::SimSession;

namespace {

// ---------------------------------------------------------------------------
// Sizes. Each pass is a fixed amount of work; a run repeats passes until its
// time is spent, so these set the number of samples per run.

// cloud_2choices: the `scale_cluster cloud` shape at 1/5 of its 10k-server
// point. Rejected arrivals, each a failed full-fleet scan, are still the
// costliest event kind.
constexpr int kCloudServers = 2000;
constexpr int kCloudTargetVms = 40000;
constexpr double kCloudStepS = 60.0;

// whatif_restore: a best-fit fleet snapshotted at 12 h of a 24 h horizon.
constexpr int kWhatIfServers = 50;
constexpr double kWhatIfHorizonS = 24.0 * 3600.0;
constexpr double kWhatIfSnapshotS = 12.0 * 3600.0;
constexpr int kWhatIfLoadsPerPass = 3;

// durable_slo: the interactive mix on 32-core servers, hourly checkpoints.
constexpr int kDurableServers = 100;
constexpr double kDurableStepS = 600.0;
constexpr double kDurableCheckpointEveryS = 3600.0;
// Genesis plus one per simulated hour of the 24 h horizon; the final
// checkpoint lands on the last hourly one and is deduplicated. Pinned: a
// different count means the cadence changed.
constexpr int64_t kDurableCheckpoints = 25;

// spark_sweep: set-up is cheap, so it is timed over several rebuilds.
constexpr int kSparkSetupRepeats = 20;

// examples/faults_cluster.plan; its seed is replaced per run.
constexpr const char* kClusterFaults = R"(faultplan/1 seed=7
rule kind=server-crash server=3 at=7200
rule kind=server-recover server=3 at=10800
rule kind=server-degrade server=11 at=14400
rule kind=server-crash server=11 at=21600
rule kind=unplug-partial p=0.1 magnitude=0.5
rule kind=hv-latency-spike p=0.02 magnitude=4.0
)";

// Independent, reproducible sub-seeds of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z % 1000000007ULL + 1;
}

double Ms(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

// Passes until the run's time is spent: at least one, and in a traced run
// untraced and traced passes alternate, at least one of each. A pass records
// its closed-loop call latencies (untraced passes only) in its second
// argument.
template <typename PassFn>
void RunPasses(const RunOptions& options, WorkloadReport& report, PassFn pass) {
  const int64_t start = NowNs();
  bool traced = false;
  while (true) {
    std::vector<double> queries;
    report.passes.push_back(pass(options.trace && traced, queries));
    PassRecord& record = report.passes.back();
    record.traced = options.trace && traced;
    record.queries = static_cast<int64_t>(queries.size());
    record.query_p50_ms = Percentile(queries, 50.0);
    record.query_p90_ms = Percentile(queries, 90.0);
    const bool both = !options.trace || report.passes.size() >= 2;
    if (both && SecondsSince(start) >= options.seconds) {
      break;
    }
    traced = !traced;
  }
}

double MedianOf(const std::vector<PassRecord>& passes, bool traced) {
  std::vector<double> walls;
  for (const PassRecord& p : passes) {
    if (p.traced == traced) {
      walls.push_back(p.wall_s);
    }
  }
  return Median(walls);
}

using Values = std::vector<std::pair<std::string, double>>;

// Counts read from the program's own registry, renamed without '/'.
void AddRegistryCounts(const MetricsRegistry& m, Values& out) {
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.CounterValue(name));
  };
  const auto dist_sum = [&m](const char* name) {
    const defl::DistributionHandle h = m.FindDistribution(name);
    return h.valid() ? m.distribution(h).sum() : 0.0;
  };
  const double launched = counter("cluster/vms/launched");
  const double rejected = counter("cluster/vms/rejected");
  const double calls = counter("controller/make_room/calls");
  const double failures = counter("controller/make_room/failures");
  out.insert(out.end(), {
      {"cluster.vms_launched", launched},
      {"cluster.vms_rejected", rejected},
      {"cluster.vms_preempted", counter("cluster/vms/preempted")},
      {"cluster.deflation_ops", counter("cluster/deflation_ops")},
      {"cluster.slo_checks", counter("slo/checks")},
      {"cluster.slo_violations", counter("slo/violations")},
      {"cluster.slo_reinflate_ops", counter("slo/reinflate_ops")},
      {"cluster.slo_victim_deflations", counter("slo/victim_deflations")},
      {"cluster.server_crashes", counter("cluster/servers/crashes")},
      {"cluster.crash_replaced", counter("cluster/vms/crash_replaced")},
      {"placement.reject_share",
       launched + rejected > 0 ? rejected / (launched + rejected) : 0.0},
      {"core.make_room_calls", calls},
      {"core.make_room_failures", failures},
      {"core.make_room_success_ratio", calls > 0 ? 1.0 - failures / calls : 0.0},
      {"core.preemptions", counter("controller/preemptions")},
      {"core.deflate_ops", counter("cascade/deflate/ops")},
      {"core.reinflate_ops", counter("cascade/reinflate/ops")},
      {"core.app_freed_mb", dist_sum("cascade/app/freed_mb")},
      {"core.os_unplugged_mb", dist_sum("cascade/os/unplugged_mb")},
      {"core.hv_reclaimed_mb", dist_sum("cascade/hv/reclaimed_mb")},
      {"faults.rpc_timeouts", counter("faults/agent_rpc/timeouts")},
      {"faults.breaker_trips", counter("faults/breaker/trips")},
      {"spark.tasks_completed", counter("spark/engine/tasks_completed")},
      {"spark.tasks_killed", counter("spark/engine/tasks_killed")},
      {"spark.recomputed_tasks", counter("spark/engine/recomputed_tasks")},
      {"spark.rollbacks", counter("spark/engine/rollbacks")},
      {"spark.policy_decisions", counter("spark/policy/decisions")},
  });
}

void AddResult(Digest& digest, const ClusterSimResult& r) {
  AddCounters(digest, r.counters);
  for (const double v :
       {r.preemption_probability, r.rejection_rate, r.mean_utilization,
        r.mean_overcommitment, r.peak_overcommitment,
        r.low_priority_allocation_quality, r.slo_violation_rate,
        r.slo_mean_p99_ms, r.slo_peak_p99_ms}) {
    digest.AddDouble(v);
  }
  for (const int64_t v : {r.crash_preemptions, r.crash_replacements,
                          r.server_crashes, r.server_recoveries,
                          r.interactive_vms, r.slo_reinflate_ops,
                          r.slo_victim_deflations}) {
    digest.AddInt(v);
  }
}

// Timed placement probe: a first-fit PlaceVmFleet over the healthy rows of
// the live FleetView with a demand no row can hold, so it visits every row.
// Returns ns per row visited, median of a few repeats.
double ProbeScanNsPerRow(defl::ClusterManager& manager, defl::AvailabilityMode mode) {
  std::vector<uint32_t> rows;
  const std::vector<defl::ServerHealth>& health = manager.health_states();
  for (size_t i = 0; i < health.size(); ++i) {
    if (health[i] == defl::ServerHealth::kHealthy) {
      rows.push_back(static_cast<uint32_t>(i));
    }
  }
  if (rows.empty()) {
    return 0.0;
  }
  const defl::ResourceVector impossible(1e12, 1e15, 1e12, 1e12);
  defl::Rng rng(1);
  // The first call also refreshes dirty rows; time only the later ones.
  (void)defl::PlaceVmFleet(impossible, manager.fleet(), rows,
                           defl::PlacementPolicy::kFirstFit, rng, mode);
  std::vector<double> ns_per_row;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    (void)defl::PlaceVmFleet(impossible, manager.fleet(), rows,
                             defl::PlacementPolicy::kFirstFit, rng, mode);
    const int64_t t1 = NowNs();
    ns_per_row.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(rows.size()));
  }
  return Median(ns_per_row);
}

// ---------------------------------------------------------------------------
// cloud_2choices

// Steps one event at a time, classifying each by its counter delta. When
// `spans` is set every event becomes a span under `parent`, and `on_hour`
// runs whenever the clock reaches a new simulated hour.
template <typename HourFn>
void StepEachEvent(SimSession& session, EventSamples& samples, SpanRecorder* spans,
                   int32_t parent, HourFn on_hour) {
  defl::ClusterManager& manager = session.manager();
  double next_hour = 0.0;
  defl::ClusterCounters before = manager.counters();
  while (true) {
    if (session.now() >= next_hour) {
      on_hour();
      next_hour = (std::floor(session.now() / 3600.0) + 1.0) * 3600.0;
    }
    const int64_t t0 = NowNs();
    const int64_t ran = session.StepEvents(1);
    const int64_t t1 = NowNs();
    if (ran == 0) {
      break;
    }
    const defl::ClusterCounters after = manager.counters();
    const EventKind kind = ClassifyEvent(before, after);
    before = after;
    samples[static_cast<size_t>(kind)].push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (spans != nullptr) {
      spans->Add(EventKindName(kind), parent, -1, t0, t1);
    }
  }
}

Result<WorkloadReport> RunCloud(const RunOptions& options, SpanRecorder* spans) {
  WorkloadReport report;
  std::vector<double> generate_s, open_s;
  EventSamples events;
  std::array<std::vector<double>, 3> scan_ns;
  int traced_passes = 0;
  Values counts;

  RunPasses(options, report, [&](bool traced, std::vector<double>& query_ms) {
    PassRecord pass;
    SpanRecorder* inner = traced ? spans : nullptr;
    ClusterSimConfig config = CloudConfig(options.seed, kCloudServers, kCloudTargetVms);

    const int64_t s0 = NowNs();
    Result<SimSession> opened = [&] {
      ScopedSpan setup(spans, "setup");
      {
        ScopedSpan gen(inner, "cluster.trace_generate", setup.id());
        config.explicit_trace = defl::GenerateDiurnalTrace(config.trace, config.arrivals);
      }
      const int64_t s1 = NowNs();
      generate_s.push_back(static_cast<double>(s1 - s0) * 1e-9);
      ScopedSpan open(inner, "cluster.open", setup.id());
      Result<SimSession> session = SimSession::Open(config);
      open_s.push_back(SecondsSince(s1));
      return session;
    }();
    report.setup_s.push_back(SecondsSince(s0));
    pass.ops = 1;
    if (!opened.ok()) {
      pass.failed_ops = 1;
      return pass;
    }
    SimSession& session = opened.value();

    const int64_t p0 = NowNs();
    ClusterSimResult result;
    {
      ScopedSpan whole(spans, "pass");
      if (traced) {
        ++traced_passes;
        StepEachEvent(session, events, spans, whole.id(), [&] {
          ScopedSpan probe(spans, "placement.probe", whole.id());
          int m = 0;
          for (const defl::AvailabilityMode mode :
               {defl::AvailabilityMode::kFreeOnly,
                defl::AvailabilityMode::kFreePlusDeflatable,
                defl::AvailabilityMode::kFreePlusPreemptible}) {
            scan_ns[static_cast<size_t>(m++)].push_back(
                ProbeScanNsPerRow(session.manager(), mode));
          }
        });
      } else {
        for (double t = kCloudStepS; !session.done(); t += kCloudStepS) {
          const int64_t q0 = NowNs();
          session.StepUntil(t);
          query_ms.push_back(Ms(q0, NowNs()));
        }
      }
      result = session.Finish();
    }
    pass.wall_s = SecondsSince(p0);
    pass.events = session.events_executed();

    Digest digest;
    AddResult(digest, result);
    digest.AddInt(session.events_executed());
    AddRegistry(digest, session.telemetry().metrics());
    pass.digest = digest.Hex();
    if (traced) {
      counts.clear();
      AddRegistryCounts(session.telemetry().metrics(), counts);
    }
    return pass;
  });

  if (options.trace) {
    LayerMetrics& out = report.per_layer;
    out.Add("cluster.trace_generate_s", Median(generate_s));
    out.Add("cluster.open_s", Median(open_s));
    AddEventKindMetrics(events, traced_passes, out);
    out.Add("placement.scan_ns_per_row.free", Median(scan_ns[0]));
    out.Add("placement.scan_ns_per_row.deflatable", Median(scan_ns[1]));
    out.Add("placement.scan_ns_per_row.preemptible", Median(scan_ns[2]));
    out.values.insert(out.values.end(), counts.begin(), counts.end());
  }
  return report;
}

// ---------------------------------------------------------------------------
// whatif_restore

ClusterSimConfig WhatIfBaseConfig(uint64_t seed) {
  ClusterSimConfig config;
  config.num_servers = kWhatIfServers;
  config.trace.duration_s = kWhatIfHorizonS;
  config.trace.max_lifetime_s = 8.0 * 3600.0;
  config.trace.seed = SubSeed(seed, 11);
  config.trace = defl::WithTargetLoad(config.trace, 1.6, config.num_servers,
                                      config.server_capacity);
  config.cluster.placement = defl::PlacementPolicy::kBestFit;
  config.cluster.seed = SubSeed(seed, 12);
  config.cluster.threads = 1;
  return config;
}

// Value of an integer field of a one-line JSON answer; 0 when absent.
int64_t AnswerField(const std::string& answer, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = answer.find(needle);
  return at == std::string::npos
             ? 0
             : std::strtoll(answer.c_str() + at + needle.size(), nullptr, 10);
}

Result<WorkloadReport> RunWhatIf(const RunOptions& options, SpanRecorder* spans) {
  Result<std::string> blob = defl::ReadSnapshotFile(options.snapshot);
  if (!blob.ok()) {
    return Error{"cannot read the what-if snapshot: " + blob.error()};
  }
  WorkloadReport report;
  const std::vector<std::string> script = WhatIfScript(options.seed);

  // One untimed Load validates the blob and pays this process's first-touch
  // page faults; each pass then times its own Loads, so the set-up samples
  // spread over the run like the passes do.
  Result<defl::WhatIfService> first = [&] {
    ScopedSpan setup(spans, "setup");
    return defl::WhatIfService::Load(blob.value());
  }();
  if (!first.ok()) {
    return Error{"WhatIfService::Load failed: " + first.error()};
  }
  auto service = std::make_unique<defl::WhatIfService>(std::move(first.value()));

  std::vector<double> restore_ms, parse_us;
  std::map<std::string, std::vector<double>> answer_ms;
  double restore_total = 0.0, answer_total = 0.0;

  RunPasses(options, report, [&](bool traced, std::vector<double>& query_ms) {
    PassRecord pass;
    {
      ScopedSpan setup(spans, "setup");
      for (int i = 0; i < kWhatIfLoadsPerPass; ++i) {
        std::string copy = blob.value();
        const int64_t t0 = NowNs();
        Result<defl::WhatIfService> loaded = defl::WhatIfService::Load(std::move(copy));
        report.setup_s.push_back(SecondsSince(t0));
        if (!loaded.ok()) {
          pass.ops = pass.failed_ops = 1;
          return pass;
        }
        service = std::make_unique<defl::WhatIfService>(std::move(loaded.value()));
      }
    }
    Digest digest;
    const int64_t p0 = NowNs();
    {
      ScopedSpan whole(spans, "pass");
      for (size_t i = 0; i < script.size(); ++i) {
        const auto qid = static_cast<int64_t>(i);
        ScopedSpan query(traced ? spans : nullptr, "service.query", whole.id(), qid);
        const int64_t q0 = NowNs();
        Result<defl::WhatIfQuery> parsed = defl::ParseQuery(script[i]);
        const int64_t q1 = NowNs();
        if (traced) {
          spans->Add("service.parse", query.id(), qid, q0, q1);
          parse_us.push_back(static_cast<double>(q1 - q0) * 1e-3);
          // A standalone child restore, the first step of every Answer.
          const int64_t r0 = NowNs();
          {
            defl::TelemetryContext telemetry;
            (void)service->RestoreChild(&telemetry);
          }
          const int64_t r1 = NowNs();
          spans->Add("service.restore", query.id(), qid, r0, r1);
          restore_ms.push_back(Ms(r0, r1));
          restore_total += Ms(r0, r1);
        }
        ++pass.ops;
        std::string line;
        const int64_t a0 = NowNs();
        if (!parsed.ok()) {
          line = "{\"error\":" + defl::JsonString(parsed.error()) + "}";
          ++pass.failed_ops;
        } else {
          Result<std::string> answer = service->Answer(parsed.value());
          if (answer.ok()) {
            line = std::move(answer.value());
          } else {
            line = "{\"error\":" + defl::JsonString(answer.error()) + "}";
            ++pass.failed_ops;
          }
        }
        const int64_t a1 = NowNs();
        if (traced) {
          spans->Add("service.answer", query.id(), qid, a0, a1);
          if (parsed.ok()) {
            answer_ms[defl::QueryKindName(parsed.value().kind)].push_back(Ms(a0, a1));
          }
          answer_total += Ms(a0, a1);
        } else {
          query_ms.push_back(Ms(q0, a1));
        }
        pass.events += AnswerField(line, "events");
        digest.Add(line);
      }
    }
    pass.wall_s = SecondsSince(p0);
    pass.digest = digest.Hex();
    return pass;
  });

  if (options.trace) {
    ScopedSpan extras(spans, "extras");
    LayerMetrics& out = report.per_layer;
    out.Add("service.load_s", Median(report.setup_s));
    out.AddPercentile("service.restore_ms.p50", restore_ms, 50.0);
    out.AddPercentile("service.restore_ms.p90", restore_ms, 90.0);
    for (const char* kind : {"place", "fail", "overcommit", "run", "slo"}) {
      out.AddPercentile(std::string("service.answer_ms.") + kind + ".p50", answer_ms[kind],
                        50.0);
    }
    out.Add("service.restore_share", answer_total > 0.0 ? restore_total / answer_total : 0.0);
    out.Add("service.parse_us", Median(parse_us));

    const std::string& bytes = service->blob();
    std::vector<double> verify_ms;
    for (int i = 0; i < 5; ++i) {
      const int64_t t0 = NowNs();
      (void)defl::SnapshotReader::OpenView(bytes);
      verify_ms.push_back(Ms(t0, NowNs()));
    }
    out.Add("sim.snapshot_verify_ms", Median(verify_ms));
    out.Add("sim.snapshot_mb", static_cast<double>(bytes.size()) / (1 << 20));

    // The trace every restore regenerates, and the base fleet's counts.
    defl::TelemetryContext telemetry;
    Result<SimSession> base = service->RestoreChild(&telemetry);
    if (base.ok()) {
      const ClusterSimConfig& config = base.value().config();
      const int64_t t0 = NowNs();
      const std::vector<defl::TraceEvent> trace =
          config.arrivals.enabled ? defl::GenerateDiurnalTrace(config.trace, config.arrivals)
                                  : defl::GenerateTrace(config.trace);
      out.Add("cluster.trace_generate_s", SecondsSince(t0));
      AddRegistryCounts(telemetry.metrics(), out.values);
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// durable_slo

// The settings of examples/interactive.workload, with its seeds replaced per
// run, and the fault plan above.
Result<ClusterSimConfig> DurableConfig(uint64_t seed) {
  Result<defl::FaultPlan> plan = defl::ParseFaultPlan(kClusterFaults);
  if (!plan.ok()) {
    return Error{plan.error()};
  }
  ClusterSimConfig config;
  config.num_servers = kDurableServers;
  config.trace.duration_s = 24.0 * 3600.0;
  config.trace.max_lifetime_s = 8.0 * 3600.0;
  config.trace.low_priority_fraction = 0.6;
  config.trace.seed = SubSeed(seed, 21);
  config.trace = defl::WithTargetLoad(config.trace, 1.8, config.num_servers,
                                      config.server_capacity);
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.6;
  config.arrivals.diurnal_period_s = 24.0 * 3600.0;
  config.arrivals.seed = 17;
  config.interactive.enabled = true;
  config.interactive.fraction = 0.45;
  config.interactive.seed = SubSeed(seed, 23);
  config.interactive.slo_p99_ms = 80.0;
  config.interactive.slo_aware = true;
  config.interactive.control_period_s = 300.0;
  config.interactive.rate_rps_per_cpu = 60.0;
  config.interactive.rate_amplitude = 0.6;
  config.interactive.rate_period_s = 24.0 * 3600.0;
  config.fault_plan = std::move(plan.value());
  config.fault_plan.seed = SubSeed(seed, 24);
  config.reinflate_period_s = 300.0;
  config.cluster.placement = defl::PlacementPolicy::kBestFit;
  config.cluster.seed = SubSeed(seed, 25);
  config.cluster.threads = 1;
  return config;
}

Result<WorkloadReport> RunDurable(const RunOptions& options, SpanRecorder* spans) {
  Result<ClusterSimConfig> config = DurableConfig(options.seed);
  if (!config.ok()) {
    return Error{config.error()};
  }
  namespace fs = std::filesystem;
  const fs::path root = fs::path(options.data_dir) / "durable";
  std::error_code ec;
  fs::remove_all(root, ec);

  WorkloadReport report;
  std::vector<double> hour_s, checkpoint_ms, encode_ms, verify_ms, shares;
  std::vector<double> fsync_counts, fsync_s;
  double snapshot_mb = 0.0;
  int64_t checkpoint_count = 0;
  Values counts;
  int pass_index = 0;

  RunPasses(options, report, [&](bool traced, std::vector<double>& query_ms) {
    PassRecord pass;
    const fs::path dir = root / ("pass-" + std::to_string(pass_index++));
    defl::DurableSession::Options opt;
    opt.dir = dir.string();
    opt.min_checkpoint_wall_s = 0.0;
    // The traced pass cuts the same hourly checkpoints explicitly, so each
    // is a span of its own.
    opt.checkpoint_every_s = traced ? 0.0 : kDurableCheckpointEveryS;

    // Every time of this workload leaves out fsync(2) waits (Stopwatch).
    const Stopwatch setup_clock;
    Result<defl::DurableSession> created = [&] {
      ScopedSpan setup(spans, "setup");
      return defl::DurableSession::Create(config.value(), opt);
    }();
    report.setup_s.push_back(setup_clock.Seconds());
    pass.ops = 1;
    if (!created.ok()) {
      pass.failed_ops = 1;
      return pass;
    }
    defl::DurableSession& durable = created.value();
    const double horizon = durable.session().duration_s();

    const FsyncTotals fsync0 = FsyncSoFar();
    const Stopwatch pass_clock;
    // Traced passes: checkpoint time, the snapshot probes' time (not part of
    // the workload), and the step time of the current simulated hour.
    double checkpoint_s = 0.0;
    double probe_s = 0.0;
    double hour_step_s = 0.0;
    Result<ClusterSimResult> result = Error{"unfinished"};
    {
      ScopedSpan whole(spans, "pass");
      SpanRecorder* inner = traced ? spans : nullptr;
      for (double t = kDurableStepS;; t += kDurableStepS) {
        const double target = std::min(t, horizon);
        const Stopwatch step_clock;
        Result<bool> stepped = true;
        {
          ScopedSpan step(inner, "durable.step", whole.id());
          stepped = durable.StepUntil(target);
        }
        const double step_ms = step_clock.Ms();
        ++pass.ops;
        pass.failed_ops += stepped.ok() ? 0 : 1;
        if (!traced) {
          query_ms.push_back(step_ms);
        } else {
          hour_step_s += step_ms * 1e-3;
        }
        if (traced && std::fmod(target, kDurableCheckpointEveryS) == 0.0) {
          hour_s.push_back(hour_step_s);
          hour_step_s = 0.0;
          if (target == 12.0 * 3600.0) {
            const int64_t e = NowNs();
            ScopedSpan encode(spans, "sim.snapshot_encode", whole.id());
            for (int i = 0; i < 3; ++i) {
              const int64_t e0 = NowNs();
              const std::string bytes = durable.session().SnapshotBytes();
              const int64_t e1 = NowNs();
              (void)defl::SnapshotReader::OpenView(bytes);
              encode_ms.push_back(Ms(e0, e1));
              verify_ms.push_back(Ms(e1, NowNs()));
              snapshot_mb = static_cast<double>(bytes.size()) / (1 << 20);
            }
            probe_s += SecondsSince(e);
          }
          const Stopwatch checkpoint_clock;
          Result<bool> saved = true;
          {
            ScopedSpan checkpoint(spans, "durable.checkpoint", whole.id());
            saved = durable.Checkpoint();
          }
          const double saved_ms = checkpoint_clock.Ms();
          ++pass.ops;
          pass.failed_ops += saved.ok() ? 0 : 1;
          checkpoint_ms.push_back(saved_ms);
          checkpoint_s += saved_ms * 1e-3;
        }
        if (target >= horizon) {
          break;
        }
      }
      ScopedSpan finish(inner, "durable.finish", whole.id());
      result = durable.Finish();
    }
    pass.wall_s = pass_clock.Seconds();
    pass.fsyncs = FsyncSoFar().calls - fsync0.calls;
    pass.fsync_s = static_cast<double>(FsyncSoFar().ns - fsync0.ns) * 1e-9;
    ++pass.ops;
    if (!result.ok()) {
      ++pass.failed_ops;
      return pass;
    }
    pass.events = durable.session().events_executed();
    // Pinned cadence: a different checkpoint count fails the pass.
    if (durable.checkpoints_written() != kDurableCheckpoints) {
      ++pass.failed_ops;
    }
    Digest digest;
    AddResult(digest, result.value());
    digest.AddInt(pass.events);
    digest.AddInt(durable.checkpoints_written());
    AddRegistry(digest, durable.session().telemetry().metrics());
    pass.digest = digest.Hex();
    if (traced) {
      shares.push_back(checkpoint_s / (pass.wall_s - probe_s));
      fsync_counts.push_back(static_cast<double>(pass.fsyncs));
      fsync_s.push_back(pass.fsync_s);
      checkpoint_count = durable.checkpoints_written();
      counts.clear();
      AddRegistryCounts(durable.session().telemetry().metrics(), counts);
    }
    fs::remove_all(dir, ec);
    return pass;
  });
  fs::remove_all(root, ec);

  if (options.trace) {
    LayerMetrics& out = report.per_layer;
    out.Add("sim.snapshot_encode_ms", Median(encode_ms));
    out.Add("sim.snapshot_mb", snapshot_mb);
    out.Add("sim.snapshot_verify_ms", Median(verify_ms));
    out.AddPercentile("durable.step_s.p50", hour_s, 50.0);
    out.AddPercentile("durable.checkpoint_ms.p50", checkpoint_ms, 50.0);
    out.Add("durable.checkpoint_ms.max",
            checkpoint_ms.empty() ? 0.0 : *std::max_element(checkpoint_ms.begin(),
                                                            checkpoint_ms.end()));
    out.Add("durable.checkpoint_count", static_cast<double>(checkpoint_count));
    out.Add("durable.checkpoint_share", Median(shares));
    out.Add("durable.fsync_count", Median(fsync_counts));
    out.Add("durable.fsync_s", Median(fsync_s));
    out.values.insert(out.values.end(), counts.begin(), counts.end());
  }
  return report;
}

// ---------------------------------------------------------------------------
// spark_sweep

struct SparkCell {
  size_t workload = 0;
  defl::SparkExperimentConfig config;
};

struct SparkMatrix {
  std::vector<defl::SparkWorkload> workloads;
  std::vector<SparkCell> cells;
};

// Figure 6 (every workload under every approach at its deflation fractions,
// triggered once before and once after mid-run) plus Figure 7a (ALS, self vs
// vm-level across trigger points, at 25% and 50% deflation): 108
// experiments, so one pass has enough for a p90. The seed draws the trigger
// points.
SparkMatrix BuildSparkMatrix(uint64_t seed) {
  using A = defl::SparkReclamationApproach;
  SparkMatrix m;
  m.workloads = {defl::MakeAlsWorkload(0.5), defl::MakeKmeansWorkload(0.5),
                 defl::MakeCnnWorkload(0.5), defl::MakeRnnWorkload(0.5)};
  const std::vector<std::vector<double>> fractions = {
      {0.25, 0.5}, {0.25, 0.5}, {0.125, 0.25, 0.5}, {0.125, 0.25, 0.5}};
  defl::Rng rng(SubSeed(seed, 31));
  const auto cell = [&m](size_t w, A approach, double fraction, double progress) {
    SparkCell c;
    c.workload = w;
    c.config.approach = approach;
    c.config.deflation_fraction = fraction;
    c.config.deflate_at_progress = progress;
    m.cells.push_back(c);
  };
  for (size_t w = 0; w < m.workloads.size(); ++w) {
    cell(w, A::kNone, 0.0, 0.5);
    for (const double f : fractions[w]) {
      for (const double lo : {0.4, 0.5}) {
        const double progress = rng.Uniform(lo, lo + 0.1);
        for (const A a : {A::kCascadePolicy, A::kSelfDeflation, A::kVmLevel,
                          A::kPreemption}) {
          cell(w, a, f, progress);
        }
      }
    }
  }
  for (const double f : {0.25, 0.5}) {
    for (const double p : {0.2, 0.3, 0.4, 0.5, 0.6, 0.7}) {
      const double progress = p + rng.Uniform(-0.02, 0.02);
      cell(0, A::kSelfDeflation, f, progress);
      cell(0, A::kVmLevel, f, progress);
    }
  }
  return m;
}

const char* ApproachKey(defl::SparkReclamationApproach a) {
  switch (a) {
    case defl::SparkReclamationApproach::kNone:
      return "none";
    case defl::SparkReclamationApproach::kCascadePolicy:
      return "cascade";
    case defl::SparkReclamationApproach::kSelfDeflation:
      return "self";
    case defl::SparkReclamationApproach::kVmLevel:
      return "vm_level";
    case defl::SparkReclamationApproach::kPreemption:
      return "preemption";
  }
  return "none";
}

Result<WorkloadReport> RunSpark(const RunOptions& options, SpanRecorder* spans) {
  WorkloadReport report;
  std::map<std::string, std::vector<double>> experiment_ms;
  Values counts;

  RunPasses(options, report, [&](bool traced, std::vector<double>& query_ms) {
    PassRecord pass;
    SparkMatrix matrix;
    {
      ScopedSpan setup(spans, "setup");
      for (int i = 0; i < kSparkSetupRepeats; ++i) {
        const int64_t s0 = NowNs();
        matrix = BuildSparkMatrix(options.seed);
        report.setup_s.push_back(SecondsSince(s0));
      }
    }
    defl::TelemetryContext telemetry;
    telemetry.trace().set_enabled(false);
    Digest digest;
    const int64_t p0 = NowNs();
    {
      ScopedSpan whole(spans, "pass");
      for (SparkCell& cell : matrix.cells) {
        cell.config.telemetry = &telemetry;
        const char* key = ApproachKey(cell.config.approach);
        const int64_t q0 = NowNs();
        defl::SparkExperimentResult r;
        {
          ScopedSpan experiment(traced ? spans : nullptr, "spark.experiment", whole.id());
          r = defl::RunSparkExperiment(matrix.workloads[cell.workload], cell.config);
        }
        const int64_t q1 = NowNs();
        (traced ? experiment_ms[key] : query_ms).push_back(Ms(q0, q1));
        ++pass.ops;
        pass.failed_ops += r.completed ? 0 : 1;
        digest.Add(key);
        digest.AddDouble(r.makespan_s);
        digest.AddInt(r.completed);
        digest.AddInt(r.deflation_applied);
        digest.AddInt(static_cast<int64_t>(r.decision.choice));
        digest.AddInt(r.tasks_killed);
        digest.AddInt(r.recomputed_tasks);
        digest.AddInt(r.rollbacks);
        digest.AddInt(static_cast<int64_t>(r.completion_log.size()));
        pass.events += static_cast<int64_t>(r.completion_log.size());
      }
    }
    pass.wall_s = SecondsSince(p0);
    AddRegistry(digest, telemetry.metrics());
    pass.digest = digest.Hex();
    if (traced) {
      counts.clear();
      AddRegistryCounts(telemetry.metrics(), counts);
    }
    return pass;
  });

  if (options.trace) {
    LayerMetrics& out = report.per_layer;
    for (const char* key : {"none", "cascade", "self", "vm_level", "preemption"}) {
      out.AddPercentile(std::string("spark.experiment_ms.") + key + ".p50",
                        experiment_ms[key], 50.0);
    }
    out.values.insert(out.values.end(), counts.begin(), counts.end());
  }
  return report;
}

}  // namespace

// ---------------------------------------------------------------------------

ClusterSimConfig CloudConfig(uint64_t seed, int servers, int target_vms) {
  ClusterSimConfig config;
  config.num_servers = servers;
  config.server_capacity = defl::ResourceVector(8.0, 64.0 * 1024.0, 500.0, 5000.0);
  config.trace.seed = SubSeed(seed, 1);
  config.trace.max_lifetime_s = 8.0 * 3600.0;
  config.trace = defl::WithTargetLoad(config.trace, 1.6, servers, config.server_capacity);
  config.trace.duration_s =
      static_cast<double>(target_vms) / config.trace.arrival_rate_per_s;
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.6;
  config.arrivals.diurnal_period_s = 2.0 * 3600.0;
  config.arrivals.burst_rate_per_s = 2.0 / 3600.0;
  config.arrivals.burst_duration_s = 900.0;
  config.arrivals.burst_multiplier = 3.0;
  // The arrival-time stream (diurnal wave and burst schedule) is part of the
  // workload's definition, as in `scale_cluster cloud`; the seed draws the
  // VM population and the 2-choices samples. Seeded bursts alone moved the
  // pass time threefold.
  config.arrivals.seed = 17;
  config.sample_period_s = 3600.0;
  config.cluster.placement = defl::PlacementPolicy::kTwoChoices;
  config.cluster.seed = SubSeed(seed, 3);
  config.cluster.threads = 1;
  return config;
}

EventSamples ClassifyAllEvents(SimSession& session) {
  EventSamples samples;
  StepEachEvent(session, samples, nullptr, -1, [] {});
  return samples;
}

// About four queries in five re-run only the restore (hours=0); the rest
// step the restored child for a short horizon.
std::vector<std::string> WhatIfScript(uint64_t seed) {
  defl::Rng rng(SubSeed(seed, 41));
  std::vector<std::string> script;
  char buf[160];
  const auto pick = [&rng](std::initializer_list<int> values) {
    return *(values.begin() + rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1));
  };
  for (int i = 0; i < 27; ++i) {
    const int cpu = pick({1, 2, 4});
    std::snprintf(buf, sizeof(buf), "place count=%d cpu=%d mem=%d prio=%s",
                  static_cast<int>(rng.UniformInt(10, 40)), cpu, cpu * 4096,
                  rng.Chance(0.2) ? "high" : "low");
    script.emplace_back(buf);
  }
  for (int i = 0; i < 27; ++i) {
    std::snprintf(buf, sizeof(buf), "fail fraction=%.2f seed=%d",
                  rng.Uniform(0.05, 0.3), static_cast<int>(rng.UniformInt(1, 1000)));
    script.emplace_back(buf);
  }
  for (int i = 0; i < 26; ++i) {
    const int cpu = pick({1, 2});
    std::snprintf(buf, sizeof(buf), "overcommit target=%.2f cpu=%d mem=%d limit=200",
                  rng.Uniform(1.2, 1.8), cpu, cpu * 4096);
    script.emplace_back(buf);
  }
  // Five `run` answers are faster than the fifteen `slo` ones, so p90 (the
  // tenth-slowest) always lands inside the `slo` group.
  for (int i = 0; i < 5; ++i) {
    script.emplace_back("run hours=0.5");
  }
  for (int i = 0; i < 15; ++i) {
    std::snprintf(buf, sizeof(buf), "slo p99=%d fraction=%.2f policy=slo hours=0.25",
                  pick({60, 80, 100}), rng.Uniform(0.3, 0.4));
    script.emplace_back(buf);
  }
  for (size_t i = script.size() - 1; i > 0; --i) {
    std::swap(script[i], script[static_cast<size_t>(
                             rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  return script;
}

Result<bool> MakeWhatIfSnapshot(uint64_t seed, const std::string& path) {
  Result<SimSession> session = SimSession::Open(WhatIfBaseConfig(seed));
  if (!session.ok()) {
    return Error{session.error()};
  }
  session.value().StepUntil(kWhatIfSnapshotS);
  return session.value().Snapshot(path);
}

Result<WorkloadReport> RunWorkload(const RunOptions& options, SpanRecorder* spans) {
  const int64_t start = NowNs();
  Result<WorkloadReport> report = Error{"unknown workload '" + options.workload + "'"};
  if (options.workload == "cloud_2choices") {
    report = RunCloud(options, spans);
  } else if (options.workload == "whatif_restore") {
    report = RunWhatIf(options, spans);
  } else if (options.workload == "durable_slo") {
    report = RunDurable(options, spans);
  } else if (options.workload == "spark_sweep") {
    report = RunSpark(options, spans);
  }
  if (!report.ok() || spans == nullptr) {
    return report;
  }
  WorkloadReport& r = report.value();
  r.span_coverage = spans->TopLevelCoverage(start, NowNs());
  const double untraced = MedianOf(r.passes, false);
  r.per_layer.Add("trace.overhead_share",
                  untraced > 0.0 ? MedianOf(r.passes, true) / untraced - 1.0 : 0.0);
  return report;
}

}  // namespace perfbench

// deflation_sim: command-line driver for the trace-driven cluster simulator.
//
// Runs a synthetic or user-provided VM trace through the deflation-based
// cluster manager (or the preemption-only baseline) and reports utilization,
// overcommitment, preemption probability, delivered resource-hours, and the
// Section 8 pricing comparison. Long runs can checkpoint to disk and resume
// later: a killed-and-resumed run produces byte-identical --metrics-out /
// --trace-out files to an uninterrupted one (DESIGN.md §11, §13).
//
// Examples:
//   deflation_sim --servers=100                               # default workload
//   deflation_sim --workload=examples/interactive.workload    # workload spec
//   deflation_sim --strategy=preemption --placement=2-choices --workload=w.workload
//   deflation_sim --save-trace=generated.csv --workload=w.workload
//   deflation_sim --pricing --metrics-out=metrics.json --trace-out=events.jsonl
//   deflation_sim --stop-after-h=6 --snapshot-out=run.snap   # checkpoint + exit
//   deflation_sim --resume-from=run.snap                     # continue it
//   deflation_sim --durable-dir=run.d   # crash-safe: WAL + auto-checkpoints;
//                                       # rerun the same command to recover
//   deflation_sim --durable-dir=run.d --checkpoint-every-h=6 --checkpoint-min-wall-s=0
//   deflation_sim --resume-from=run.d/ckpt-000002.snap       # any checkpoint resumes
//
// Every workload setting -- offered load, horizon, transient share, seeds,
// trace replay, fault plan, the diurnal arrival model, the interactive mix --
// comes from the --workload spec (DESIGN.md §16); without one a run uses
// WorkloadSpec's defaults.
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "src/cluster/durable_session.h"
#include "src/cluster/sim_session.h"
#include "src/cluster/trace_io.h"
#include "src/common/atomic_file.h"
#include "src/common/cadence.h"
#include "src/common/sim_options.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

using namespace defl;

namespace {

// Run-control and cluster-shape flags; the workload itself is the
// --workload spec file.
struct Options {
  int servers = 50;
  int server_cpus = 32;
  double server_mem_gb = 256.0;
  std::string strategy = "deflation";
  std::string placement = "best-fit";
  double reinflate_period_s = 0.0;
  bool predictive = false;
  bool pricing = false;
  std::string save_trace;
  double recovery_grace_s = 600.0;
  std::string snapshot_out;
  std::string resume_from;
  double stop_after_h = 0.0;
  std::string durable_dir;
  double checkpoint_every_h = 1.0;
  double checkpoint_min_wall_s = 5.0;
  int keep_checkpoints = 3;
  std::string workload;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return 1;
}

const char* StrategyName(ReclamationStrategy strategy) {
  return strategy == ReclamationStrategy::kDeflation ? "deflation" : "preemption";
}

// Translates the resolved workload spec plus the run-control flags into a
// fresh-run config (trace generation or replay, arrival model, interactive
// mix, fault plan, strategy/placement). Shared by the classic run path and a
// durable run's first generation; resumed and recovered runs take their
// config from the snapshot instead.
Result<ClusterSimConfig> BuildFreshConfig(const Options& opt,
                                          const WorkloadSpec& spec,
                                          const SimCommonOptions& common,
                                          TelemetryContext& telemetry) {
  ClusterSimConfig config;
  config.num_servers = opt.servers;
  config.server_capacity =
      ResourceVector(static_cast<double>(opt.server_cpus), opt.server_mem_gb * 1024.0,
                     1000.0, 10000.0);
  config.trace.duration_s = spec.duration_h * 3600.0;
  config.trace.max_lifetime_s = std::min(config.trace.duration_s, 8.0 * 3600.0);
  config.trace.low_priority_fraction = spec.low_pri_fraction;
  config.trace.seed = spec.seed;
  config.trace = WithTargetLoad(config.trace, spec.load, config.num_servers,
                                config.server_capacity);
  if (spec.diurnal) {
    config.arrivals.enabled = true;
    config.arrivals.diurnal_amplitude = spec.diurnal_amplitude;
    config.arrivals.diurnal_period_s = spec.diurnal_period_h * 3600.0;
    config.arrivals.diurnal_phase_s = spec.diurnal_phase_h * 3600.0;
    config.arrivals.burst_rate_per_s = spec.burst_rate_per_h / 3600.0;
    config.arrivals.burst_duration_s = spec.burst_duration_s;
    config.arrivals.burst_multiplier = spec.burst_multiplier;
    config.arrivals.seed = spec.arrival_seed;
  }
  if (spec.interactive) {
    config.interactive.enabled = true;
    config.interactive.fraction = spec.interactive_fraction;
    config.interactive.seed = spec.interactive_seed;
    config.interactive.slo_p99_ms = spec.slo_p99_ms;
    config.interactive.slo_aware = spec.slo_policy != "uniform";
    config.interactive.control_period_s = spec.slo_period_s;
    config.interactive.rate_rps_per_cpu = spec.rate_rps_per_cpu;
    config.interactive.rate_amplitude = spec.rate_amplitude;
    config.interactive.rate_period_s = spec.rate_period_h * 3600.0;
  }
  config.reinflate_period_s = opt.reinflate_period_s;
  config.predictive_holdback = opt.predictive;
  config.recovery_grace_s = opt.recovery_grace_s;
  if (!spec.fault_plan.empty()) {
    Result<FaultPlan> plan = LoadFaultPlanFile(spec.fault_plan);
    if (!plan.ok()) {
      return Error{"cannot load fault plan: " + plan.error()};
    }
    config.fault_plan = std::move(plan.value());
    std::printf("injecting faults from %s (%zu rules, seed %llu)\n",
                spec.fault_plan.c_str(), config.fault_plan.rules.size(),
                static_cast<unsigned long long>(config.fault_plan.seed));
  }

  if (opt.strategy == "deflation") {
    config.cluster.strategy = ReclamationStrategy::kDeflation;
  } else if (opt.strategy == "preemption") {
    config.cluster.strategy = ReclamationStrategy::kPreemptionOnly;
  } else {
    return Error{"unknown --strategy '" + opt.strategy + "'"};
  }
  const Result<PlacementPolicy> placement = PlacementPolicyFromName(opt.placement);
  if (!placement.ok()) {
    return Error{"--placement: " + placement.error()};
  }
  config.cluster.placement = placement.value();

  if (!spec.trace_file.empty()) {
    Result<std::vector<TraceEvent>> loaded = LoadTraceFile(spec.trace_file);
    if (!loaded.ok()) {
      return Error{"cannot load trace: " + loaded.error()};
    }
    config.explicit_trace = std::move(loaded.value());
    if (!config.explicit_trace.empty()) {
      config.trace.duration_s = std::max(
          config.trace.duration_s, config.explicit_trace.back().arrival_s + 3600.0);
    }
    std::printf("replaying %zu events from %s\n", config.explicit_trace.size(),
                spec.trace_file.c_str());
  }
  // Checked over the horizon the run has -- a replayed trace stretches it
  // past duration-h -- and before --save-trace writes anything.
  for (const auto& [what, period_s] :
       {std::pair<std::string, double>{"--reinflate-period-s", opt.reinflate_period_s},
        {opt.workload + ": 'slo-period-s'", spec.interactive ? spec.slo_period_s : 0.0}}) {
    const Result<bool> cadence = CheckCadence(what, period_s, config.trace.duration_s);
    if (!cadence.ok()) {
      return Error{cadence.error()};
    }
  }
  if (!opt.save_trace.empty()) {
    if (const char* invalid = TraceConfigError(config.trace)) {
      return Error{std::string("cannot generate --save-trace: ") + invalid};
    }
    const std::vector<TraceEvent> generated =
        GenerateArrivalTrace(config.trace, config.arrivals);
    const Result<bool> saved = SaveTraceFile(generated, opt.save_trace);
    if (!saved.ok()) {
      return Error{saved.error()};
    }
    std::printf("wrote %zu events to %s\n", generated.size(),
                opt.save_trace.c_str());
  }

  // Recording the full event trace costs memory; only do it when asked.
  // The enabled bit rides along in snapshots, so a resumed run keeps the
  // original run's choice.
  telemetry.trace().set_enabled(!common.trace_out.empty());
  config.telemetry = &telemetry;
  return config;
}

// Exports --metrics-out / --trace-out (atomically: a killed export never
// leaves a torn file for a consumer to read) and prints the run report.
int WriteOutputsAndReport(const Options& opt, const SimCommonOptions& common,
                          TelemetryContext& telemetry,
                          const ClusterSimConfig& cfg,
                          const ClusterSimResult& r) {
  if (!common.metrics_out.empty()) {
    std::ostringstream os;
    telemetry.metrics().DumpJson(os);
    os << "\n";
    const Result<bool> wrote = WriteFileAtomic(common.metrics_out, os.str());
    if (!wrote.ok()) {
      return Fail("cannot write --metrics-out: " + wrote.error());
    }
    std::printf("wrote metrics to %s\n", common.metrics_out.c_str());
  }
  if (!common.trace_out.empty()) {
    std::ostringstream os;
    telemetry.trace().DumpJsonl(os);
    const Result<bool> wrote = WriteFileAtomic(common.trace_out, os.str());
    if (!wrote.ok()) {
      return Fail("cannot write --trace-out: " + wrote.error());
    }
    std::printf("wrote %zu trace events to %s\n", telemetry.trace().size(),
                common.trace_out.c_str());
  }

  std::printf("\n=== deflation_sim: %d servers x %.0fc/%.0fGB, %s, %s ===\n",
              cfg.num_servers, cfg.server_capacity[ResourceKind::kCpu],
              cfg.server_capacity[ResourceKind::kMemory] / 1024.0,
              StrategyName(cfg.cluster.strategy), PlacementPolicyName(cfg.cluster.placement));
  std::printf("VMs launched        %ld (%ld transient), rejected %ld (%.1f%%)\n",
              r.counters.launched, r.counters.launched_low_priority,
              r.counters.rejected, 100.0 * r.rejection_rate);
  std::printf("preempted           %ld transient VMs (probability %.3f)\n",
              r.counters.preempted, r.preemption_probability);
  std::printf("utilization         %.3f mean\n", r.mean_utilization);
  std::printf("overcommitment      %.3f mean, %.3f peak\n", r.mean_overcommitment,
              r.peak_overcommitment);
  std::printf("transient quality   %.3f of nominal allocation on average\n",
              r.low_priority_allocation_quality);
  std::printf("delivered           %.0f effective transient CPU-hours "
              "(%.0f nominal)\n",
              r.usage.low_pri_effective_cpu_hours, r.usage.low_pri_nominal_cpu_hours);
  if (!cfg.fault_plan.rules.empty()) {
    std::printf("faults              %ld server crashes (%ld recovered), "
                "%ld VMs re-placed, %ld crash-preempted\n",
                r.server_crashes, r.server_recoveries, r.crash_replacements,
                r.crash_preemptions);
  }
  if (cfg.interactive.enabled) {
    std::printf("interactive         %ld web VMs, p99 target %.0fms (%s policy)\n",
                r.interactive_vms, cfg.interactive.slo_p99_ms,
                cfg.interactive.slo_aware ? "slo" : "uniform");
    std::printf("slo                 violation rate %.3f, p99 mean %.1fms / "
                "peak %.0fms, %ld reinflations, %ld victim deflations\n",
                r.slo_violation_rate, r.slo_mean_p99_ms, r.slo_peak_p99_ms,
                r.slo_reinflate_ops, r.slo_victim_deflations);
  }

  if (opt.pricing) {
    const PricingModel model;
    std::printf("\npricing (on-demand $%.3f/vCPU-h):\n", model.on_demand_cpu_hour);
    const auto report = [](const char* label, const RevenueReport& rr) {
      std::printf("  %-10s revenue $%8.2f  customer cost $%8.2f  losses $%7.2f  "
                  "effective $%.4f/CPU-h\n",
                  label, rr.provider_revenue, rr.customer_cost, rr.customer_loss,
                  rr.effective_cost_per_cpu_hour);
    };
    report("flat", PriceDeflatableFlat(r.usage, model));
    report("raas", PriceDeflatableRaaS(r.usage, model));
    report("spot", PricePreemptible(r.usage, model));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  SimOptionsParser options(
      "deflation_sim: trace-driven cluster simulation with resource deflation");
  FlagParser& parser = options.flags();
  parser.AddInt("servers", "number of physical servers", &opt.servers);
  parser.AddInt("server-cpus", "cores per server", &opt.server_cpus);
  parser.AddDouble("server-mem-gb", "memory per server (GB)", &opt.server_mem_gb);
  parser.AddString("workload",
                   "load the workload from this spec file (`key = value` "
                   "lines; see DESIGN.md §16); without it the spec defaults "
                   "apply",
                   &opt.workload);
  parser.AddString("strategy", "deflation | preemption", &opt.strategy);
  parser.AddString("placement", "best-fit | first-fit | 2-choices", &opt.placement);
  parser.AddDouble("reinflate-period-s", "proactive reinflation period (0 = off)",
                   &opt.reinflate_period_s);
  parser.AddBool("predictive", "EWMA holdback during proactive reinflation",
                 &opt.predictive);
  parser.AddBool("pricing", "print the Section 8 pricing comparison", &opt.pricing);
  parser.AddString("save-trace", "write the generated trace to this CSV file",
                   &opt.save_trace);
  parser.AddDouble("recovery-grace-s",
                   "probation before a recovered server takes placements",
                   &opt.recovery_grace_s);
  parser.AddString("snapshot-out", "checkpoint file for --stop-after-h",
                   &opt.snapshot_out);
  parser.AddString("resume-from",
                   "restore the simulation from this snapshot instead of "
                   "starting fresh (config flags come from the snapshot)",
                   &opt.resume_from);
  parser.AddDouble("stop-after-h",
                   "run N simulated hours, checkpoint to --snapshot-out, and "
                   "exit without finishing",
                   &opt.stop_after_h);
  parser.AddString("durable-dir",
                   "crash-safe run directory (WAL + atomic auto-checkpoints); "
                   "rerunning the same command after a crash recovers and "
                   "continues, with byte-identical outputs (DESIGN.md §13)",
                   &opt.durable_dir);
  parser.AddDouble("checkpoint-every-h",
                   "auto-checkpoint cadence inside --durable-dir, simulated "
                   "hours (0 = only genesis and final checkpoints)",
                   &opt.checkpoint_every_h);
  parser.AddDouble("checkpoint-min-wall-s",
                   "skip a cadence checkpoint if the previous one landed "
                   "less than this many wall-clock seconds ago, bounding the "
                   "durability overhead on fast runs (0 = checkpoint every "
                   "cadence boundary)",
                   &opt.checkpoint_min_wall_s);
  parser.AddInt("keep-checkpoints",
                "newest K checkpoints retained in --durable-dir",
                &opt.keep_checkpoints);
  const Result<std::vector<std::string>> parsed = options.Parse(argc, argv);
  if (!parsed.ok()) {
    return Fail(parsed.error());
  }
  const SimCommonOptions& common = options.common();

  // Flag combinations that cannot mean anything: a snapshot carries its own
  // workload and trace.
  for (const Result<bool>& check : {
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "workload", parser.WasSet("workload"),
                                 "the snapshot already carries its workload"),
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "save-trace", !opt.save_trace.empty(),
                                 "the snapshot already carries its trace"),
           // The durable directory IS the checkpoint/resume mechanism; mixing
           // it with the single-snapshot flags would leave two sources of
           // truth for where the run restarts.
           RejectFlagCombination("durable-dir", !opt.durable_dir.empty(),
                                 "snapshot-out", !opt.snapshot_out.empty(),
                                 "the durable dir manages its own checkpoints"),
           RejectFlagCombination("durable-dir", !opt.durable_dir.empty(),
                                 "stop-after-h", opt.stop_after_h > 0.0,
                                 "a durable run is always resumable; just kill it"),
           RejectFlagCombination("durable-dir", !opt.durable_dir.empty(),
                                 "resume-from", !opt.resume_from.empty(),
                                 "recovery comes from the durable dir itself"),
       }) {
    if (!check.ok()) {
      return Fail(check.error());
    }
  }
  // The one snapshot a plain run writes is the one it stops at; periodic
  // checkpoints are --durable-dir's, and every ckpt-*.snap resumes.
  if ((opt.stop_after_h > 0.0) != !opt.snapshot_out.empty()) {
    return Fail("--stop-after-h and --snapshot-out go together");
  }
  if (opt.durable_dir.empty() &&
      (parser.WasSet("checkpoint-every-h") || parser.WasSet("checkpoint-min-wall-s") ||
       parser.WasSet("keep-checkpoints"))) {
    return Fail("--checkpoint-every-h / --checkpoint-min-wall-s / "
                "--keep-checkpoints require --durable-dir");
  }
  if (opt.checkpoint_every_h < 0.0) {
    return Fail("--checkpoint-every-h must be >= 0");
  }
  if (opt.checkpoint_min_wall_s < 0.0) {
    return Fail("--checkpoint-min-wall-s must be >= 0");
  }
  if (opt.keep_checkpoints < 1) {
    return Fail("--keep-checkpoints must be >= 1");
  }

  // The workload: the --workload spec file, loaded and checked by
  // ValidateWorkloadSpec (which owns every cross-key rule, e.g. a replayed
  // trace excluding the diurnal generator), or WorkloadSpec's defaults.
  WorkloadSpec spec;
  if (parser.WasSet("workload")) {
    const Result<std::string> text = ReadFileToString(opt.workload);
    if (!text.ok()) {
      return Fail("cannot read --workload: " + text.error());
    }
    Result<WorkloadSpec> loaded = ParseWorkloadSpec(text.value(), opt.workload);
    if (!loaded.ok()) {
      return Fail(loaded.error());
    }
    const Result<bool> valid = ValidateWorkloadSpec(loaded.value(), opt.workload);
    if (!valid.ok()) {
      return Fail(valid.error());
    }
    spec = std::move(loaded.value());
  }
  if (!spec.trace_file.empty() && !opt.save_trace.empty()) {
    return Fail("--save-trace cannot be combined with a workload that sets "
                "trace-file (replaying an existing trace generates nothing "
                "to save)");
  }

  TelemetryContext telemetry;

  // Durable mode: the run directory carries the whole story. A fresh
  // directory starts a new journaled run; a directory with a recoverable
  // run in it continues that run (config flags are then ignored, exactly as
  // with --resume-from -- the snapshot carries the config).
  if (!opt.durable_dir.empty()) {
    DurableSession::Options dopt;
    dopt.dir = opt.durable_dir;
    dopt.checkpoint_every_s = opt.checkpoint_every_h * 3600.0;
    dopt.min_checkpoint_wall_s = opt.checkpoint_min_wall_s;
    dopt.keep_checkpoints = opt.keep_checkpoints;
    Result<DurableSession> durable = Error{"unopened"};
    if (DurableSession::CanRecover(opt.durable_dir)) {
      dopt.telemetry = &telemetry;
      durable = DurableSession::Recover(dopt);
      if (!durable.ok()) {
        return Fail(durable.error());
      }
      std::printf("recovered %s at t=%.2fh (%lld events executed)\n",
                  opt.durable_dir.c_str(),
                  durable.value().session().now() / 3600.0,
                  static_cast<long long>(
                      durable.value().session().events_executed()));
    } else {
      Result<ClusterSimConfig> config = BuildFreshConfig(opt, spec, common, telemetry);
      if (!config.ok()) {
        return Fail(config.error());
      }
      durable = DurableSession::Create(config.value(), dopt);
      if (!durable.ok()) {
        return Fail(durable.error());
      }
    }
    Result<ClusterSimResult> result = durable.value().Finish();
    if (!result.ok()) {
      return Fail(result.error());
    }
    return WriteOutputsAndReport(opt, common, telemetry,
                                 durable.value().session().config(),
                                 result.value());
  }

  Result<SimSession> session = Error{"unopened"};
  if (!opt.resume_from.empty()) {
    SimSession::RestoreOptions restore;
    restore.telemetry = &telemetry;
    session = SimSession::Restore(opt.resume_from, restore);
    if (!session.ok()) {
      return Fail(session.error());
    }
    std::printf("resumed from %s at t=%.2fh (%lld events executed)\n",
                opt.resume_from.c_str(), session.value().now() / 3600.0,
                static_cast<long long>(session.value().events_executed()));
  } else {
    Result<ClusterSimConfig> config = BuildFreshConfig(opt, spec, common, telemetry);
    if (!config.ok()) {
      return Fail(config.error());
    }
    session = SimSession::Open(config.value());
    if (!session.ok()) {
      return Fail(session.error());
    }
  }
  SimSession& sim = session.value();
  const ClusterSimConfig& cfg = sim.config();

  if (opt.stop_after_h > 0.0) {
    sim.StepUntil(opt.stop_after_h * 3600.0);
    const Result<bool> saved = sim.Snapshot(opt.snapshot_out);
    if (!saved.ok()) {
      return Fail(saved.error());
    }
    std::printf("checkpointed at t=%.2fh (%lld events executed) to %s\n",
                sim.now() / 3600.0,
                static_cast<long long>(sim.events_executed()),
                opt.snapshot_out.c_str());
    return 0;
  }
  const ClusterSimResult r = sim.Finish();
  return WriteOutputsAndReport(opt, common, telemetry, cfg, r);
}

// deflation_sim: command-line driver for the trace-driven cluster simulator.
//
// Runs a synthetic or user-provided VM trace through the deflation-based
// cluster manager (or the preemption-only baseline) and reports utilization,
// overcommitment, preemption probability, delivered resource-hours, and the
// Section 8 pricing comparison. Long runs can checkpoint to disk and resume
// later: a killed-and-resumed run produces byte-identical --metrics-out /
// --trace-out files to an uninterrupted one (DESIGN.md §11).
//
// Examples:
//   deflation_sim --servers=100 --load=1.6 --duration-h=12
//   deflation_sim --workload=examples/interactive.workload   # declarative spec
//   deflation_sim --strategy=preemption --placement=2-choices --load=1.4
//   deflation_sim --trace-file=my_trace.csv --pricing
//   deflation_sim --save-trace=generated.csv --load=1.2
//   deflation_sim --metrics-out=metrics.json --trace-out=events.jsonl
//   deflation_sim --fault-plan=examples/faults_cluster.plan
//   deflation_sim --duration-h=48 --snapshot-every-h=6 --snapshot-out=run.snap
//   deflation_sim --stop-after-h=12 --snapshot-out=run.snap   # checkpoint + exit
//   deflation_sim --resume-from=run.snap                      # continue it
//   deflation_sim --durable-dir=run.d   # crash-safe: WAL + auto-checkpoints;
//                                       # rerun the same command to recover
#include <cstdio>
#include <sstream>
#include <string>

#include "src/cluster/durable_session.h"
#include "src/cluster/sim_session.h"
#include "src/cluster/trace_io.h"
#include "src/common/atomic_file.h"
#include "src/common/sim_options.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

using namespace defl;

namespace {

struct Options {
  // Run-control and cluster-shape flags (not part of the workload).
  int64_t servers = 50;
  int64_t server_cpus = 32;
  double server_mem_gb = 256.0;
  std::string strategy = "deflation";
  std::string placement = "best-fit";
  double reinflate_period_s = 0.0;
  bool predictive = false;
  bool pricing = false;
  std::string save_trace;
  double recovery_grace_s = 600.0;
  double snapshot_every_h = 0.0;
  std::string snapshot_out;
  std::string resume_from;
  double stop_after_h = 0.0;
  std::string durable_dir;
  double checkpoint_every_h = 1.0;
  double checkpoint_min_wall_s = 5.0;
  int64_t keep_checkpoints = 3;
  // The declarative workload surface: --workload=FILE loads a WorkloadSpec;
  // the deprecated per-knob flags below build the same spec (and cannot be
  // combined with --workload).
  std::string workload;
  double load = 1.6;
  double duration_h = 12.0;
  double low_pri_fraction = 0.6;
  int64_t seed = 42;
  std::string trace_file;
  bool diurnal = false;
  double diurnal_amplitude = 0.5;
  double diurnal_period_h = 24.0;
  double diurnal_phase_h = 0.0;
  double burst_rate_per_h = 0.0;
  double burst_duration_s = 600.0;
  double burst_multiplier = 2.0;
  int64_t arrival_seed = 7;
  bool interactive = false;
  double interactive_fraction = 0.3;
  int64_t interactive_seed = 21;
  double slo_p99_ms = 100.0;
  std::string slo_policy = "slo";
  double slo_period_s = 60.0;
  double rate_rps_per_cpu = 30.0;
  double rate_amplitude = 0.6;
  double rate_period_h = 24.0;
};

// Every flag that is a deprecated alias for a WorkloadSpec key (same
// spelling); --workload excludes all of them.
constexpr const char* kWorkloadFlagNames[] = {
    "load",           "duration-h",       "low-pri-fraction",
    "seed",           "trace-file",       "fault-plan",
    "diurnal",        "diurnal-amplitude", "diurnal-period-h",
    "diurnal-phase-h", "burst-rate-per-h", "burst-duration-s",
    "burst-multiplier", "arrival-seed",    "interactive",
    "interactive-fraction", "interactive-seed", "slo-p99-ms",
    "slo-policy",     "slo-period-s",     "rate-rps-per-cpu",
    "rate-amplitude", "rate-period-h",
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
  config.num_servers = static_cast<int>(opt.servers);
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
  if (opt.placement == "best-fit") {
    config.cluster.placement = PlacementPolicy::kBestFit;
  } else if (opt.placement == "first-fit") {
    config.cluster.placement = PlacementPolicy::kFirstFit;
  } else if (opt.placement == "2-choices") {
    config.cluster.placement = PlacementPolicy::kTwoChoices;
  } else {
    return Error{"unknown --placement '" + opt.placement + "'"};
  }

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
  if (!opt.save_trace.empty()) {
    const std::vector<TraceEvent> generated =
        config.arrivals.enabled
            ? GenerateDiurnalTrace(config.trace, config.arrivals)
            : GenerateTrace(config.trace);
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
                   "lines; see DESIGN.md §16); excludes the per-knob "
                   "workload flags below",
                   &opt.workload);
  parser.AddDouble("load",
                   "offered CPU load as a fraction of capacity "
                   "(workload alias; prefer --workload)",
                   &opt.load);
  parser.AddDouble("duration-h", "simulated hours (workload alias)",
                   &opt.duration_h);
  parser.AddDouble("low-pri-fraction",
                   "fraction of transient VM arrivals (workload alias)",
                   &opt.low_pri_fraction);
  parser.AddString("strategy", "deflation | preemption", &opt.strategy);
  parser.AddString("placement", "best-fit | first-fit | 2-choices", &opt.placement);
  parser.AddInt("seed", "trace RNG seed (workload alias)", &opt.seed);
  parser.AddDouble("reinflate-period-s", "proactive reinflation period (0 = off)",
                   &opt.reinflate_period_s);
  parser.AddBool("predictive", "EWMA holdback during proactive reinflation",
                 &opt.predictive);
  parser.AddBool("pricing", "print the Section 8 pricing comparison", &opt.pricing);
  parser.AddString("trace-file",
                   "replay this CSV trace instead of generating "
                   "(workload alias)",
                   &opt.trace_file);
  parser.AddString("save-trace", "write the generated trace to this CSV file",
                   &opt.save_trace);
  parser.AddBool("diurnal",
                 "draw arrivals from the diurnal/bursty generator instead of "
                 "a flat-rate Poisson process (--load stays the mean) "
                 "(workload alias)",
                 &opt.diurnal);
  parser.AddDouble("diurnal-amplitude",
                   "sinusoidal rate swing around the mean, 0..1 "
                   "(workload alias)",
                   &opt.diurnal_amplitude);
  parser.AddDouble("diurnal-period-h", "diurnal cycle length (hours) "
                   "(workload alias)",
                   &opt.diurnal_period_h);
  parser.AddDouble("diurnal-phase-h", "offset of the first rate peak (hours) "
                   "(workload alias)",
                   &opt.diurnal_phase_h);
  parser.AddDouble("burst-rate-per-h", "Poisson rate of burst onsets (0 = off) "
                   "(workload alias)",
                   &opt.burst_rate_per_h);
  parser.AddDouble("burst-duration-s", "length of each burst window "
                   "(workload alias)",
                   &opt.burst_duration_s);
  parser.AddDouble("burst-multiplier", "rate multiplier inside a burst "
                   "(workload alias)",
                   &opt.burst_multiplier);
  parser.AddInt("arrival-seed",
                "RNG seed for diurnal arrival times (independent of --seed) "
                "(workload alias)",
                &opt.arrival_seed);
  parser.AddBool("interactive",
                 "tag a fraction of transient VMs as interactive web servers "
                 "with an SLO-aware deflation controller (workload alias)",
                 &opt.interactive);
  parser.AddDouble("interactive-fraction",
                   "fraction of transient arrivals tagged interactive "
                   "(workload alias)",
                   &opt.interactive_fraction);
  parser.AddInt("interactive-seed",
                "RNG seed for interactive tagging (workload alias)",
                &opt.interactive_seed);
  parser.AddDouble("slo-p99-ms",
                   "p99 latency target for interactive VMs, milliseconds "
                   "(workload alias)",
                   &opt.slo_p99_ms);
  parser.AddString("slo-policy",
                   "slo = SLO-aware controller, uniform = measure only "
                   "(workload alias)",
                   &opt.slo_policy);
  parser.AddDouble("slo-period-s",
                   "SLO controller check period, seconds (workload alias)",
                   &opt.slo_period_s);
  parser.AddDouble("rate-rps-per-cpu",
                   "mean offered request rate per nominal CPU (workload alias)",
                   &opt.rate_rps_per_cpu);
  parser.AddDouble("rate-amplitude",
                   "diurnal swing of the offered request rate, 0..1 "
                   "(workload alias)",
                   &opt.rate_amplitude);
  parser.AddDouble("rate-period-h",
                   "offered-rate cycle length (hours) (workload alias)",
                   &opt.rate_period_h);
  parser.AddDouble("recovery-grace-s",
                   "probation before a recovered server takes placements",
                   &opt.recovery_grace_s);
  parser.AddDouble("snapshot-every-h",
                   "checkpoint to --snapshot-out every N simulated hours (0 = off)",
                   &opt.snapshot_every_h);
  parser.AddString("snapshot-out", "checkpoint file for --snapshot-every-h / "
                   "--stop-after-h",
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

  // Resolve the workload: --workload=FILE loads and validates a spec file;
  // otherwise the deprecated flag aliases build the same spec (provenance
  // line 0, so validation errors keep the --flag wording). Either way,
  // ValidateWorkloadSpec owns every cross-key rule -- e.g. a replayed trace
  // excluding the diurnal generator -- with one wording for both surfaces.
  WorkloadSpec spec;
  std::string spec_source = "<flags>";
  if (parser.WasSet("workload")) {
    for (const char* name : kWorkloadFlagNames) {
      if (parser.WasSet(name)) {
        return Fail("--workload and --" + std::string(name) +
                    " cannot be combined (the workload spec file owns that "
                    "setting)");
      }
    }
    if (!opt.resume_from.empty()) {
      return Fail("--resume-from and --workload cannot be combined (the "
                  "snapshot already carries its workload)");
    }
    const Result<std::string> text = ReadFileToString(opt.workload);
    if (!text.ok()) {
      return Fail("cannot read --workload: " + text.error());
    }
    Result<WorkloadSpec> loaded = ParseWorkloadSpec(text.value(), opt.workload);
    if (!loaded.ok()) {
      return Fail(loaded.error());
    }
    spec = std::move(loaded.value());
    spec_source = opt.workload;
  } else {
    spec.load = opt.load;
    spec.duration_h = opt.duration_h;
    spec.low_pri_fraction = opt.low_pri_fraction;
    spec.seed = static_cast<uint64_t>(opt.seed);
    spec.trace_file = opt.trace_file;
    spec.fault_plan = common.fault_plan;
    spec.diurnal = opt.diurnal;
    spec.diurnal_amplitude = opt.diurnal_amplitude;
    spec.diurnal_period_h = opt.diurnal_period_h;
    spec.diurnal_phase_h = opt.diurnal_phase_h;
    spec.burst_rate_per_h = opt.burst_rate_per_h;
    spec.burst_duration_s = opt.burst_duration_s;
    spec.burst_multiplier = opt.burst_multiplier;
    spec.arrival_seed = static_cast<uint64_t>(opt.arrival_seed);
    spec.interactive = opt.interactive;
    spec.interactive_fraction = opt.interactive_fraction;
    spec.interactive_seed = static_cast<uint64_t>(opt.interactive_seed);
    spec.slo_p99_ms = opt.slo_p99_ms;
    spec.slo_policy = opt.slo_policy;
    spec.slo_period_s = opt.slo_period_s;
    spec.rate_rps_per_cpu = opt.rate_rps_per_cpu;
    spec.rate_amplitude = opt.rate_amplitude;
    spec.rate_period_h = opt.rate_period_h;
    for (const char* name : kWorkloadFlagNames) {
      if (parser.WasSet(name)) {
        spec.provenance.emplace(name, 0);
      }
    }
  }
  {
    const Result<bool> valid = ValidateWorkloadSpec(spec, spec_source);
    if (!valid.ok()) {
      return Fail(valid.error());
    }
  }

  // Flag combinations that cannot mean anything: replaying an existing
  // trace leaves nothing newly generated to save, and a snapshot carries
  // its own trace and fault plan. (Workload-internal exclusions like
  // trace-file vs diurnal live in ValidateWorkloadSpec above.)
  for (const Result<bool>& check : {
           RejectFlagCombination(
               "trace-file", !spec.trace_file.empty(), "save-trace",
               !opt.save_trace.empty(),
               "replaying an existing trace generates nothing to save"),
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "trace-file", !opt.trace_file.empty(),
                                 "the snapshot already carries its trace"),
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "save-trace", !opt.save_trace.empty(),
                                 "the snapshot already carries its trace"),
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "fault-plan", !common.fault_plan.empty(),
                                 "the snapshot already carries its fault plan"),
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "diurnal", opt.diurnal,
                                 "the snapshot already carries its trace"),
           RejectFlagCombination("resume-from", !opt.resume_from.empty(),
                                 "interactive", opt.interactive,
                                 "the snapshot already carries its workload"),
           // The durable directory IS the checkpoint/resume mechanism; mixing
           // it with the single-snapshot flags would leave two sources of
           // truth for where the run restarts.
           RejectFlagCombination("durable-dir", !opt.durable_dir.empty(),
                                 "snapshot-out", !opt.snapshot_out.empty(),
                                 "the durable dir manages its own checkpoints"),
           RejectFlagCombination("durable-dir", !opt.durable_dir.empty(),
                                 "snapshot-every-h", opt.snapshot_every_h > 0.0,
                                 "use --checkpoint-every-h inside the durable dir"),
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
  if (opt.stop_after_h > 0.0 && opt.snapshot_out.empty()) {
    return Fail("--stop-after-h requires --snapshot-out");
  }
  if (opt.snapshot_every_h > 0.0 && opt.snapshot_out.empty()) {
    return Fail("--snapshot-every-h requires --snapshot-out");
  }
  if (opt.durable_dir.empty() &&
      (opt.checkpoint_every_h != 1.0 || opt.checkpoint_min_wall_s != 5.0 ||
       opt.keep_checkpoints != 3)) {
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
    dopt.keep_checkpoints = static_cast<int>(opt.keep_checkpoints);
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
  if (opt.snapshot_every_h > 0.0) {
    const double period_s = opt.snapshot_every_h * 3600.0;
    for (double t = sim.now() + period_s; t < sim.duration_s(); t += period_s) {
      sim.StepUntil(t);
      const Result<bool> saved = sim.Snapshot(opt.snapshot_out);
      if (!saved.ok()) {
        return Fail(saved.error());
      }
      std::printf("checkpointed at t=%.2fh to %s\n", sim.now() / 3600.0,
                  opt.snapshot_out.c_str());
    }
  }
  const ClusterSimResult r = sim.Finish();
  return WriteOutputsAndReport(opt, common, telemetry, cfg, r);
}

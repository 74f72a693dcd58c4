// spark_sim: command-line driver for the Spark deflation experiments.
//
// Runs one workload under one reclamation approach with configurable
// deflation fraction and timing, and reports the makespan, the normalized
// slowdown, and what the Section 4.1 policy decided.
//
// Examples:
//   spark_sim --workload=als --approach=cascade --fraction=0.5
//   spark_sim --workload=cnn --approach=preemption --fraction=0.25
//   spark_sim --workload=kmeans --approach=self --fraction=0.5 --at-progress=0.3
//   spark_sim --workload=als --metrics-out=metrics.json --trace-out=events.jsonl
//   spark_sim --workload=als --fault-plan=examples/faults_basic.plan
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/sim_options.h"
#include "src/faults/fault_injector.h"
#include "src/spark/experiment.h"
#include "src/telemetry/telemetry.h"

using namespace defl;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return 1;
}

// "<total> injected: <kind> <count>, ..." over the kinds the plan names, in
// FaultKind order, so a kind that no site of this run samples reads 0.
std::string InjectedSummary(const FaultInjector& injector) {
  const std::vector<FaultRule>& rules = injector.plan().rules;
  std::string summary = std::to_string(injector.total_injected()) + " injected:";
  const char* separator = " ";
  for (int i = 0; i < kNumFaultKinds; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    if (std::none_of(rules.begin(), rules.end(),
                     [kind](const FaultRule& rule) { return rule.kind == kind; })) {
      continue;
    }
    summary += separator + std::string(FaultKindName(kind)) + " " +
               std::to_string(injector.injected(kind));
    separator = ", ";
  }
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name = "als";
  std::string approach_name = "cascade";
  double fraction = 0.5;
  double at_progress = 0.5;
  double scale = 1.0;
  int workers = 8;
  std::string fault_plan_file;

  SimOptionsParser options("spark_sim: Spark workloads under resource deflation");
  FlagParser& parser = options.flags();
  parser.AddString("workload", "als | kmeans | cnn | rnn", &workload_name);
  parser.AddString("approach", "cascade | self | vm-level | preemption",
                   &approach_name);
  parser.AddDouble("fraction", "deflation fraction of every worker", &fraction);
  parser.AddDouble("at-progress", "job progress at which pressure hits", &at_progress);
  parser.AddDouble("scale", "workload size multiplier", &scale);
  parser.AddInt("workers", "number of worker VMs", &workers);
  parser.AddString("fault-plan", "inject failures from this fault plan file",
                   &fault_plan_file);
  const Result<std::vector<std::string>> parsed = options.Parse(argc, argv);
  if (!parsed.ok()) {
    return Fail(parsed.error());
  }
  const std::string& metrics_out = options.common().metrics_out;
  const std::string& trace_out = options.common().trace_out;

  SparkWorkload workload;
  if (workload_name == "als") {
    workload = MakeAlsWorkload(scale);
  } else if (workload_name == "kmeans") {
    workload = MakeKmeansWorkload(scale);
  } else if (workload_name == "cnn") {
    workload = MakeCnnWorkload(scale);
  } else if (workload_name == "rnn") {
    workload = MakeRnnWorkload(scale);
  } else {
    return Fail("unknown --workload '" + workload_name + "'");
  }

  SparkExperimentConfig config;
  config.num_workers = workers;
  config.deflation_fraction = fraction;
  config.deflate_at_progress = at_progress;
  if (approach_name == "cascade") {
    config.approach = SparkReclamationApproach::kCascadePolicy;
  } else if (approach_name == "self") {
    config.approach = SparkReclamationApproach::kSelfDeflation;
  } else if (approach_name == "vm-level") {
    config.approach = SparkReclamationApproach::kVmLevel;
  } else if (approach_name == "preemption") {
    config.approach = SparkReclamationApproach::kPreemption;
  } else {
    return Fail("unknown --approach '" + approach_name + "'");
  }

  // The baseline run stays untelemetered so only the measured run's events
  // land in the export.
  const double baseline = SparkBaselineMakespan(workload, config);
  TelemetryContext telemetry;
  telemetry.trace().set_enabled(!trace_out.empty());
  config.telemetry = &telemetry;
  std::unique_ptr<FaultInjector> injector;
  if (!fault_plan_file.empty()) {
    Result<FaultPlan> plan = LoadFaultPlanFile(fault_plan_file);
    if (!plan.ok()) {
      return Fail("cannot load fault plan: " + plan.error());
    }
    injector = std::make_unique<FaultInjector>(std::move(plan.value()));
    injector->AttachTelemetry(&telemetry);
    config.faults = injector.get();
    std::printf("injecting faults from %s\n", fault_plan_file.c_str());
  }
  const SparkExperimentResult result = RunSparkExperiment(workload, config);
  if (!result.completed) {
    return Fail("job did not complete within the simulation limit");
  }

  if (!metrics_out.empty()) {
    std::ostringstream os;
    telemetry.metrics().DumpJson(os);
    os << "\n";
    const Result<bool> wrote = WriteFileAtomic(metrics_out, os.str());
    if (!wrote.ok()) {
      return Fail("cannot write --metrics-out: " + wrote.error());
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    std::ostringstream os;
    telemetry.trace().DumpJsonl(os);
    const Result<bool> wrote = WriteFileAtomic(trace_out, os.str());
    if (!wrote.ok()) {
      return Fail("cannot write --trace-out: " + wrote.error());
    }
    std::printf("wrote %zu trace events to %s\n", telemetry.trace().size(),
                trace_out.c_str());
  }

  std::printf("workload      %s (x%.2f scale, %d workers)\n", workload.name.c_str(),
              scale, workers);
  std::printf("pressure      %.0f%% of every worker at %.0f%% progress (%s)\n",
              fraction * 100.0, at_progress * 100.0, approach_name.c_str());
  std::printf("baseline      %.1f s undisturbed\n", baseline);
  std::printf("measured      %.1f s (%.2fx normalized running time)\n",
              result.makespan_s, result.makespan_s / baseline);
  if (config.approach == SparkReclamationApproach::kCascadePolicy &&
      result.deflation_applied) {
    std::printf("policy        chose %s (T_vm=%.2f, T_self=%.2f, r=%.2f)\n",
                SparkDeflationChoiceName(result.decision.choice),
                result.decision.t_vm_factor, result.decision.t_self_factor,
                result.decision.r_used);
  }
  std::printf("disruption    %ld tasks killed, %ld recomputed, %ld rollbacks\n",
              result.tasks_killed, result.recomputed_tasks, result.rollbacks);
  if (injector != nullptr) {
    std::printf("faults        %s\n", InjectedSummary(*injector).c_str());
  }
  return 0;
}

#include "src/service/whatif.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/cluster/slo_controller.h"
#include "src/common/cadence.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/json_util.h"

namespace defl {

namespace {

// What-if VMs live far above any trace-assigned id (traces number VMs
// 0..n-1), so a probe launch can never collide with a snapshotted VM in the
// manager's VmId index.
constexpr VmId kWhatIfVmIdBase = 1'000'000'000'000LL;

VmSpec WhatIfSpec(const WhatIfQuery& query) {
  VmSpec spec;
  spec.name = "whatif";
  spec.size = query.shape;
  spec.priority = query.priority;
  // min_size stays zero: low-priority probes are fully deflatable, matching
  // the transient VMs the paper's placement policies are tuned for.
  return spec;
}

}  // namespace

CrashOutcome CrashHealthyFraction(ClusterManager& manager, double fraction,
                                  uint64_t seed) {
  std::vector<ServerId> healthy;
  const std::vector<ServerHealth>& states = manager.health_states();
  std::vector<Server*> servers = manager.servers();
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i] == ServerHealth::kHealthy) {
      healthy.push_back(servers[i]->id());
    }
  }
  const int64_t n = static_cast<int64_t>(healthy.size());
  int64_t k = static_cast<int64_t>(std::floor(fraction * static_cast<double>(n) + 0.5));
  if (k > n) {
    k = n;
  }
  Rng rng(seed);
  for (int64_t i = 0; i < k; ++i) {
    const int64_t j = rng.UniformInt(i, n - 1);
    std::swap(healthy[static_cast<size_t>(i)], healthy[static_cast<size_t>(j)]);
  }
  std::vector<ServerId> victims(healthy.begin(), healthy.begin() + k);
  std::sort(victims.begin(), victims.end());
  for (ServerId id : victims) {
    manager.CrashServer(id);
  }
  return CrashOutcome{n, k};
}

AdmitOutcome AdmitUntilOvercommit(ClusterManager& manager, const VmSpec& spec,
                                  VmId id_base, double target, int64_t limit) {
  AdmitOutcome outcome;
  for (int64_t attempts = 0;
       attempts < limit && manager.Overcommitment() < target; ++attempts) {
    if (!manager.LaunchVm(std::make_unique<Vm>(id_base + attempts, spec)).ok()) {
      outcome.rejected = true;
      break;
    }
    ++outcome.admitted;
  }
  return outcome;
}

DeflationStats CollectDeflation(ClusterManager& manager) {
  std::vector<ClusterManager::ServerUsageSample> samples;
  manager.CollectUsageSamples(&samples);
  std::vector<double> deflation;
  double sum = 0.0;
  for (const ClusterManager::ServerUsageSample& sample : samples) {
    for (const ClusterManager::ServerUsageSample::VmUsage& vm : sample.vms) {
      if (!vm.low_priority || vm.nominal_cpu <= 0.0) {
        continue;
      }
      const double d = 1.0 - vm.effective_cpu / vm.nominal_cpu;
      deflation.push_back(d);
      sum += d;
    }
  }
  DeflationStats stats;
  stats.low_vms = static_cast<int64_t>(deflation.size());
  if (deflation.empty()) {
    return stats;
  }
  std::sort(deflation.begin(), deflation.end());
  size_t idx = (deflation.size() * 99) / 100;
  if (idx >= deflation.size()) {
    idx = deflation.size() - 1;
  }
  stats.p99 = deflation[idx];
  stats.mean = sum / static_cast<double>(deflation.size());
  return stats;
}

Result<WhatIfService> WhatIfService::Load(std::string blob) {
  std::shared_ptr<const std::string> shared =
      std::make_shared<const std::string>(std::move(blob));
  Result<std::shared_ptr<const SimSession::Image>> image = SimSession::Decode(*shared);
  if (!image.ok()) {
    return Error{"snapshot blob rejected: " + image.error()};
  }
  WhatIfService service(shared, std::move(image.value()));
  service.blob_fnv_ = SealedSnapshotFnv(*shared);  // Decode verified the footer
  // One probe build runs the imports every child repeats, so a blob that
  // decodes but cannot build fails here, not per query.
  TelemetryContext probe;
  Result<SimSession> check = service.RestoreChild(&probe);
  if (!check.ok()) {
    return Error{"snapshot blob rejected: " + check.error()};
  }
  service.base_now_s_ = check.value().now();
  service.base_duration_s_ = check.value().duration_s();
  return service;
}

Result<bool> WhatIfService::CheckRunCadences(const ClusterSimConfig& config,
                                             double hours) const {
  const double span_s =
      std::min(hours * 3600.0, config.trace.duration_s - base_now_s_);
  const std::pair<const char*, double> periods[] = {
      {"sample_period_s", config.sample_period_s},
      {"reinflate_period_s", config.reinflate_period_s},
      {"interactive.control_period_s",
       config.interactive.enabled ? config.interactive.control_period_s : 0.0},
  };
  for (const auto& [field, period_s] : periods) {
    const Result<bool> cadence = CheckCadence(field, period_s, span_s);
    if (!cadence.ok()) {
      return cadence;
    }
  }
  return true;
}

Result<SimSession> WhatIfService::RestoreChild(
    TelemetryContext* telemetry, int placement,
    const SimSession::RestoreOptions::SloOverride* slo) const {
  SimSession::RestoreOptions options;
  options.telemetry = telemetry;
  options.placement = placement;
  if (slo != nullptr) {
    options.slo = *slo;
  }
  return SimSession::Build(*image_, options);
}

Result<std::string> WhatIfService::Answer(const WhatIfQuery& query) const {
  TelemetryContext telemetry;
  SimSession::RestoreOptions::SloOverride slo;
  if (query.kind == QueryKind::kSlo) {
    slo.active = true;
    slo.slo_p99_ms = query.slo_p99_ms;
    slo.fraction = query.mix_fraction;
    slo.policy = query.slo_policy;
    slo.control_period_s = query.slo_period_s;
  }
  Result<SimSession> restored =
      RestoreChild(&telemetry, /*placement=*/-1, slo.active ? &slo : nullptr);
  if (!restored.ok()) {
    return Error{"what-if restore failed: " + restored.error()};
  }
  SimSession& session = restored.value();
  const Result<bool> bounded = CheckRunCadences(session.config(), query.hours);
  if (!bounded.ok()) {
    return Error{"what-if run refused: " + bounded.error()};
  }
  ClusterManager& manager = session.manager();
  const ClusterCounters before = manager.counters();
  // kSlo reports metric deltas over its run; the child's registry arrives
  // pre-loaded with the snapshot's history, so capture the baselines now.
  int64_t slo_checks0 = 0, slo_violations0 = 0, slo_reinflate0 = 0,
          slo_victims0 = 0;
  if (query.kind == QueryKind::kSlo) {
    const MetricsRegistry& metrics = telemetry.metrics();
    slo_checks0 = metrics.CounterValue("slo/checks");
    slo_violations0 = metrics.CounterValue("slo/violations");
    slo_reinflate0 = metrics.CounterValue("slo/reinflate_ops");
    slo_victims0 = metrics.CounterValue("slo/victim_deflations");
  }

  std::string out = "{\"kind\":" + JsonString(QueryKindName(query.kind));
  switch (query.kind) {
    case QueryKind::kPlace: {
      int64_t placed = 0;
      const VmSpec spec = WhatIfSpec(query);
      for (int64_t i = 0; i < query.count; ++i) {
        if (manager.LaunchVm(std::make_unique<Vm>(kWhatIfVmIdBase + i, spec))
                .ok()) {
          ++placed;
        }
      }
      const ClusterCounters after = manager.counters();
      out += ",\"count\":" + std::to_string(query.count);
      out += ",\"placed\":" + std::to_string(placed);
      out += ",\"rejected\":" + std::to_string(query.count - placed);
      out += ",\"deflation_ops\":" +
             std::to_string(after.deflation_ops - before.deflation_ops);
      out += ",\"preempted\":" +
             std::to_string(after.preempted - before.preempted);
      break;
    }
    case QueryKind::kFail: {
      const CrashOutcome crash =
          CrashHealthyFraction(manager, query.fraction, query.seed);
      const ClusterCounters after = manager.counters();
      out += ",\"fraction\":" + JsonNumber(query.fraction);
      out += ",\"healthy\":" + std::to_string(crash.healthy);
      out += ",\"failed\":" + std::to_string(crash.failed);
      out += ",\"crash_replaced\":" +
             std::to_string(after.crash_replaced - before.crash_replaced);
      out += ",\"crash_preempted\":" +
             std::to_string(after.crash_preempted - before.crash_preempted);
      out += ",\"crash_lost\":" +
             std::to_string(after.crash_lost - before.crash_lost);
      break;
    }
    case QueryKind::kOvercommit: {
      const AdmitOutcome admit = AdmitUntilOvercommit(
          manager, WhatIfSpec(query), kWhatIfVmIdBase, query.target, query.limit);
      const ClusterCounters after = manager.counters();
      out += ",\"target\":" + JsonNumber(query.target);
      out += ",\"admitted\":" + std::to_string(admit.admitted);
      out += std::string(",\"reached\":") +
             (manager.Overcommitment() >= query.target ? "true" : "false");
      out += std::string(",\"rejected\":") + (admit.rejected ? "true" : "false");
      out += ",\"deflation_ops\":" +
             std::to_string(after.deflation_ops - before.deflation_ops);
      out += ",\"preempted\":" +
             std::to_string(after.preempted - before.preempted);
      break;
    }
    case QueryKind::kRun:
      // All reporting happens in the shared hours block below.
      break;
    case QueryKind::kSlo: {
      // Echo the effective interactive config (post-override) and the
      // interactive population currently placed, in canonical server order.
      const InteractiveSloConfig& mix = session.config().interactive;
      int64_t placed = 0;
      for (Server* server : manager.servers()) {
        for (const std::unique_ptr<Vm>& vm : server->vms()) {
          if (IsInteractiveSpec(vm->spec())) {
            ++placed;
          }
        }
      }
      out += ",\"p99_target_ms\":" + JsonNumber(mix.slo_p99_ms);
      out += ",\"policy\":" + JsonString(mix.slo_aware ? "slo" : "uniform");
      out += ",\"mix_fraction\":" + JsonNumber(mix.fraction);
      out += ",\"interactive_placed\":" + std::to_string(placed);
      break;
    }
  }

  if (query.hours > 0.0) {
    const ClusterCounters mid = manager.counters();
    const int64_t events_mid = session.events_executed();
    session.StepUntil(session.now() + query.hours * 3600.0);
    const ClusterCounters end = manager.counters();
    const DeflationStats deflation = CollectDeflation(manager);
    out += ",\"hours\":" + JsonNumber(query.hours);
    out += ",\"events\":" +
           std::to_string(session.events_executed() - events_mid);
    out += ",\"sim_preempted\":" + std::to_string(end.preempted - mid.preempted);
    out += ",\"sim_crash_preempted\":" +
           std::to_string(end.crash_preempted - mid.crash_preempted);
    out += ",\"low_vms\":" + std::to_string(deflation.low_vms);
    out += ",\"p99_deflation\":" + JsonNumber(deflation.p99);
    out += ",\"mean_deflation\":" + JsonNumber(deflation.mean);
  }
  if (query.kind == QueryKind::kSlo) {
    const MetricsRegistry& metrics = telemetry.metrics();
    const int64_t checks = metrics.CounterValue("slo/checks") - slo_checks0;
    const int64_t violations =
        metrics.CounterValue("slo/violations") - slo_violations0;
    out += ",\"slo_checks\":" + std::to_string(checks);
    out += ",\"slo_violations\":" + std::to_string(violations);
    out += ",\"violation_rate\":" +
           JsonNumber(checks > 0
                          ? static_cast<double>(violations) /
                                static_cast<double>(checks)
                          : 0.0);
    // Distribution stats are cumulative over the whole simulated history
    // (snapshot included): RunningStats fold, they don't subtract.
    const RunningStats& p99 =
        metrics.distribution(metrics.FindDistribution("slo/p99_ms"));
    out += ",\"p99_mean_ms\":" + JsonNumber(p99.count() > 0 ? p99.mean() : 0.0);
    out += ",\"p99_peak_ms\":" + JsonNumber(p99.count() > 0 ? p99.max() : 0.0);
    out += ",\"reinflate_ops\":" +
           std::to_string(metrics.CounterValue("slo/reinflate_ops") -
                          slo_reinflate0);
    out += ",\"victim_deflations\":" +
           std::to_string(metrics.CounterValue("slo/victim_deflations") -
                          slo_victims0);
  }
  out += ",\"utilization\":" + JsonNumber(manager.Utilization());
  out += ",\"overcommitment\":" + JsonNumber(manager.Overcommitment());
  out += ",\"now_h\":" + JsonNumber(session.now() / 3600.0);
  out += "}";
  return out;
}

std::string WhatIfService::AnswerBatch(const std::vector<WhatIfQuery>& queries,
                                       int workers) const {
  std::vector<std::string> lines(queries.size());
  const auto answer_one = [this, &queries, &lines](int64_t i) {
    Result<std::string> answer = Answer(queries[static_cast<size_t>(i)]);
    lines[static_cast<size_t>(i)] =
        answer.ok() ? answer.value()
                    : "{\"error\":" + JsonString(answer.error()) + "}";
  };
  ParallelFor(static_cast<int64_t>(queries.size()), workers, answer_one);
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  out += "# batch queries=" + std::to_string(queries.size()) + " fnv1a64=" +
         Hex16(SnapshotFnv1a64(out.data(), out.size())) + "\n";
  return out;
}

}  // namespace defl

#include "src/cluster/slo_controller.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/rng.h"
#include "src/common/stats.h"

namespace defl {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Stateless per-VM phase offset for the diurnal request-rate curve
// (SplitMix64 finalizer over the mix seed and the VM id): every VM peaks at
// its own time of day without the session carrying per-VM generator state.
double InteractivePhaseS(uint64_t seed, VmId id, double period_s) {
  uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(id) + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return period_s * (static_cast<double>(z >> 11) * 0x1.0p-53);
}

// Open-loop offered load for one web VM at simulated time `now`: millions of
// aggregate users follow a sinusoidal diurnal curve, phase-shifted per VM.
double OfferedRps(const InteractiveSloConfig& mix, VmId id, double nominal_cpu,
                  double now) {
  const double phase = InteractivePhaseS(mix.seed, id, mix.rate_period_s);
  const double wave = std::sin(kTwoPi * (now + phase) / mix.rate_period_s);
  return std::max(0.0,
                  mix.rate_rps_per_cpu * nominal_cpu *
                      (1.0 + mix.rate_amplitude * wave));
}

}  // namespace

bool IsInteractiveSpec(const VmSpec& spec) {
  return spec.name.rfind("web", 0) == 0;
}

void ApplyInteractiveMix(std::vector<TraceEvent>& trace, const InteractiveSloConfig& mix) {
  Rng rng(mix.seed);
  for (size_t i = 0; i < trace.size(); ++i) {
    TraceEvent& event = trace[i];
    if (IsInteractiveSpec(event.spec) || event.spec.priority != VmPriority::kLow) {
      continue;
    }
    if (!rng.Chance(mix.fraction)) {
      continue;
    }
    event.spec.name = "web-" + std::to_string(i);
    event.spec.min_size = event.spec.size * 0.25;
  }
}

int64_t CountInteractive(const std::vector<TraceEvent>& trace) {
  int64_t tagged = 0;
  for (const TraceEvent& event : trace) {
    if (IsInteractiveSpec(event.spec)) {
      ++tagged;
    }
  }
  return tagged;
}

void SloController::RegisterMetrics(MetricsRegistry& registry) {
  checks_ = registry.Counter("slo/checks");
  violations_ = registry.Counter("slo/violations");
  reinflates_ = registry.Counter("slo/reinflate_ops");
  victim_deflations_ = registry.Counter("slo/victim_deflations");
  p99_dist_ = registry.Distribution("slo/p99_ms");
  offered_series_ = registry.Series("slo/offered_rps");
  p99_series_ = registry.Series("slo/worst_p99_ms");
}

// Relieves one SLO-violating web VM: restore its nominal allocation by
// deflating batch/spark co-tenants on the same server (never another web
// VM) and handing the freed resources back through the reverse cascade.
// Victims are taken in hosting order -- the canonical order everything
// else uses.
void SloController::Relieve(Server* server, LocalController* controller, Vm* web,
                            MetricsRegistry& registry) const {
  const ResourceVector deficit =
      (web->spec().size - web->effective()).ClampNonNegative();
  if (!deficit.AnyPositive()) {
    return;
  }
  ResourceVector shortfall = (deficit - server->Free()).ClampNonNegative();
  if (shortfall.AnyPositive()) {
    for (const auto& hosted : server->vms()) {
      if (!shortfall.AnyPositive()) {
        break;
      }
      Vm* victim = hosted.get();
      if (victim == web || !victim->deflatable() ||
          IsInteractiveSpec(victim->spec())) {
        continue;
      }
      const ResourceVector take = shortfall.Min(victim->deflatable_amount());
      if (!take.AnyPositive()) {
        continue;
      }
      const DeflationOutcome outcome = controller->DeflateVm(victim->id(), take);
      const ResourceVector got = outcome.TotalReclaimed();
      if (got.AnyPositive()) {
        registry.Add(victim_deflations_);
      }
      shortfall = (shortfall - got).ClampNonNegative();
    }
  }
  const ResourceVector give = deficit.Min(server->Free());
  if (!give.AnyPositive()) {
    return;
  }
  ReinflatePlan plan;
  plan.entries.push_back(ReinflatePlan::Entry{web, give});
  controller->ApplyReinflate(plan);
  registry.Add(reinflates_);
}

void SloController::Tick(ClusterManager& manager, const InteractiveSloConfig& mix,
                         double now, MetricsRegistry& registry) const {
  double worst_p99_ms = 0.0;
  double total_offered = 0.0;
  for (Server* server : manager.servers()) {
    LocalController* controller = manager.controller(server->id());
    const auto& hosted = server->vms();
    for (size_t i = 0; i < hosted.size(); ++i) {
      Vm* web = hosted[i].get();
      if (!IsInteractiveSpec(web->spec())) {
        continue;
      }
      const double nominal_cpu = web->spec().size[ResourceKind::kCpu];
      const double effective_cpu = web->effective()[ResourceKind::kCpu];
      if (nominal_cpu <= 0.0) {
        continue;
      }
      const double offered = OfferedRps(mix, web->id(), nominal_cpu, now);
      total_offered += offered;
      const double d =
          std::clamp(1.0 - effective_cpu / nominal_cpu, 0.0, 1.0);
      const WebLatencyQuantiles q =
          WebLatencyUnderLoad(mix.latency, effective_cpu, d, offered);
      registry.Add(checks_);
      registry.Observe(p99_dist_, q.p99_ms);
      worst_p99_ms = std::max(worst_p99_ms, q.p99_ms);
      if (q.p99_ms <= mix.slo_p99_ms) {
        continue;
      }
      registry.Add(violations_);
      if (mix.slo_aware) {
        Relieve(server, controller, web, registry);
      }
    }
  }
  registry.ObserveAt(offered_series_, now, total_offered);
  registry.ObserveAt(p99_series_, now, worst_p99_ms);
}

void SloController::Report(const MetricsRegistry& registry,
                           ClusterSimResult& result) const {
  const int64_t checks = registry.counter(checks_);
  const int64_t violations = registry.counter(violations_);
  result.slo_violation_rate =
      checks > 0 ? static_cast<double>(violations) / static_cast<double>(checks)
                 : 0.0;
  const RunningStats& p99 = registry.distribution(p99_dist_);
  result.slo_mean_p99_ms = p99.mean();
  result.slo_peak_p99_ms = p99.count() > 0 ? p99.max() : 0.0;
  result.slo_reinflate_ops = registry.counter(reinflates_);
  result.slo_victim_deflations = registry.counter(victim_deflations_);
}

}  // namespace defl

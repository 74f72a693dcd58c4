// Diurnal/bursty arrivals: the same 1.6x mean offered load as
// cluster_overcommit, but the arrival rate follows a sinusoidal day-night
// cycle with Poisson-arriving load bursts layered on top
// (src/sim/arrival_gen.h, Lewis-Shedler thinning). Peak-hour pressure is
// where deflation earns its keep: the cluster absorbs the crest by
// squeezing transient VMs instead of preempting them, and reinflates in the
// trough. The deflation run from the CLI, with the same workload as a spec
// file:
//
//   deflation_sim --servers=40 --workload=examples/diurnal.workload
//       --reinflate-period-s=600
#include <cstdio>

#include "src/cluster/sim_session.h"

using namespace defl;

namespace {

ClusterSimResult Run(ReclamationStrategy strategy) {
  ClusterSimConfig config;
  config.num_servers = 40;
  config.server_capacity = ResourceVector(32.0, 256.0 * 1024.0, 1000.0, 10000.0);
  config.trace.duration_s = 24.0 * 3600.0;
  config.trace.max_lifetime_s = 8.0 * 3600.0;
  config.trace.seed = 2024;
  config.trace =
      WithTargetLoad(config.trace, 1.6, config.num_servers, config.server_capacity);
  // The mean rate stays what WithTargetLoad derived; the generator swings
  // the instantaneous rate 0.3x..1.7x around it over a 24 h cycle, and
  // bursts (about one per hour, 15 min, 3x) ride on top.
  config.arrivals.enabled = true;
  config.arrivals.diurnal_amplitude = 0.7;
  config.arrivals.diurnal_period_s = 24.0 * 3600.0;
  config.arrivals.burst_rate_per_s = 1.0 / 3600.0;
  config.arrivals.burst_duration_s = 900.0;
  config.arrivals.burst_multiplier = 3.0;
  config.arrivals.seed = 7;
  config.reinflate_period_s = 600.0;
  config.cluster.strategy = strategy;
  Result<SimSession> session = SimSession::Open(config);
  if (!session.ok()) {
    std::printf("cannot open session: %s\n", session.error().c_str());
    return ClusterSimResult{};
  }
  // Inspect at the peak of the sinusoid (t = period/4) and at the trough
  // (t = 3*period/4) to see the swing the manager is absorbing.
  SimSession& sim = session.value();
  for (const double hours : {6.0, 18.0}) {
    sim.StepUntil(hours * 3600.0);
    const SimInspectView view = sim.Inspect();
    std::printf("  [t=%02.0fh %s] %lld VMs hosted, utilization %.2f, "
                "overcommitment %.2f\n",
                view.now_s / 3600.0, hours == 6.0 ? "peak  " : "trough",
                static_cast<long long>(view.hosted_vms), view.utilization,
                view.overcommitment);
  }
  return sim.Finish();
}

void Report(const char* label, const ClusterSimResult& r) {
  std::printf("%s\n", label);
  std::printf("  VMs launched: %ld (%ld transient), rejected: %ld\n",
              r.counters.launched, r.counters.launched_low_priority,
              r.counters.rejected);
  std::printf("  transient VMs preempted: %ld (probability %.3f)\n",
              r.counters.preempted, r.preemption_probability);
  std::printf("  mean utilization %.2f, mean overcommitment %.2f (peak %.2f)\n\n",
              r.mean_utilization, r.mean_overcommitment, r.peak_overcommitment);
}

}  // namespace

int main() {
  std::printf("40 servers, 24 h sinusoidal load (0.3x..1.7x of the 1.6x mean) "
              "+ hourly bursts\n\n");
  Report("deflation-based management:", Run(ReclamationStrategy::kDeflation));
  Report("preemption-only management:", Run(ReclamationStrategy::kPreemptionOnly));
  return 0;
}

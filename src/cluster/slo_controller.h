// Interactive-serving workload mix and its SLO control loop (DESIGN.md §16).
// A seeded fraction of low-priority arrivals are re-tagged as web VMs that
// serve an open-loop request stream; each control period the controller
// evaluates their p99 against the fig5-style latency model and, under the
// slo-aware policy, relieves violating VMs at the expense of batch
// co-tenants. SimSession owns one and ticks it from its event queue.
#ifndef SRC_CLUSTER_SLO_CONTROLLER_H_
#define SRC_CLUSTER_SLO_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "src/cluster/cluster_sim.h"
#include "src/telemetry/metrics.h"

namespace defl {

// True for an interactive web VM: its name starts with "web".
bool IsInteractiveSpec(const VmSpec& spec);

// Re-tags a seeded fraction of low-priority arrivals as interactive web VMs
// (deflatable to 25% of nominal, like the catalog's web entries). One
// Chance() draw per candidate event, in trace order, so the tagged set is a
// pure function of (trace, seed, fraction) -- regenerated identically on
// restore. Events already named "web*" stay as they are. Arrival times and
// lifetimes are untouched, so pending queue entries indexing the trace stay
// valid across a re-tag.
void ApplyInteractiveMix(std::vector<TraceEvent>& trace, const InteractiveSloConfig& mix);

// The number of interactive events in a trace.
int64_t CountInteractive(const std::vector<TraceEvent>& trace);

class SloController {
 public:
  // Registers the slo/* metrics. A session registers them last and only for
  // interactive runs, so every other scenario keeps its exact registry
  // layout (snapshot import and the golden digests both depend on it).
  void RegisterMetrics(MetricsRegistry& registry);

  // One control period at `now`: evaluates every interactive VM's open-loop
  // p99 against the target in canonical (server, hosting) order. Under the
  // slo-aware policy a violating VM is relieved at once; under the uniform
  // baseline the violation is only counted and reclamation stays with the
  // EuroSys policies.
  void Tick(ClusterManager& manager, const InteractiveSloConfig& mix, double now,
            MetricsRegistry& registry) const;

  // Fills the result's SLO fields from the registry.
  void Report(const MetricsRegistry& registry, ClusterSimResult& result) const;

 private:
  void Relieve(Server* server, LocalController* controller, Vm* web,
               MetricsRegistry& registry) const;

  CounterHandle checks_;
  CounterHandle violations_;
  CounterHandle reinflates_;
  CounterHandle victim_deflations_;
  DistributionHandle p99_dist_;
  SeriesHandle offered_series_;
  SeriesHandle p99_series_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_SLO_CONTROLLER_H_

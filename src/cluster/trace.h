// Synthetic cloud workload trace with the statistical structure of the
// Eucalyptus traces used in Section 6.3 (the original trace files are not
// redistributable): Poisson VM arrivals, heavy-tailed lifetimes, a catalog
// of VM sizes, a configurable low-priority fraction, and per-application
// minimum sizes (the empirically determined minimum levels for Spark,
// memcached and SpecJBB VMs the paper mentions).
#ifndef SRC_CLUSTER_TRACE_H_
#define SRC_CLUSTER_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hypervisor/vm.h"
#include "src/resources/resource_vector.h"
#include "src/sim/arrival_gen.h"

namespace defl {

struct TraceEvent {
  double arrival_s = 0.0;
  double lifetime_s = 0.0;
  VmSpec spec;
};

struct VmCatalogEntry {
  std::string app;       // "spark", "memcached", "specjbb", ...
  ResourceVector size;
  double min_fraction;   // minimum viable allocation as a fraction of size
  double weight;         // relative arrival frequency
};

// The default catalog: small-to-large VM shapes with the paper's three
// application classes and their empirically-determined minimum sizes.
std::vector<VmCatalogEntry> DefaultVmCatalog();

struct TraceConfig {
  double duration_s = 24.0 * 3600.0;
  double arrival_rate_per_s = 0.01;
  // Heavy-tailed lifetimes: bounded Pareto with this tail index.
  double lifetime_alpha = 1.5;
  double min_lifetime_s = 600.0;
  double max_lifetime_s = 48.0 * 3600.0;
  // Fraction of arrivals that are transient (deflatable/preemptible). With
  // 0.6 the cluster sustains the paper's 1.6x overcommitment without
  // preemptions; see EXPERIMENTS.md for the sensitivity to this knob.
  double low_priority_fraction = 0.6;
  std::vector<VmCatalogEntry> catalog = DefaultVmCatalog();
  uint64_t seed = 42;
};

std::vector<TraceEvent> GenerateTrace(const TraceConfig& config);

// Like GenerateTrace, but arrival times come from the diurnal/bursty
// generator (src/sim/arrival_gen.h) instead of a flat-rate Poisson process:
// config.arrival_rate_per_s is the mean rate the sinusoid oscillates
// around, so WithTargetLoad composes unchanged. VM shapes, lifetimes, and
// priorities are sampled per arrival from config.seed with the same
// per-event draw order as GenerateTrace; arrival times draw from
// arrivals.seed, so the two knobs vary independently.
std::vector<TraceEvent> GenerateDiurnalTrace(const TraceConfig& config,
                                             const ArrivalGenConfig& arrivals);

// The trace a simulation generates: GenerateDiurnalTrace when `arrivals` is
// enabled, GenerateTrace otherwise. It stops early once it holds `limit`
// events: a caller that knows the length to expect passes one more, so an
// overrun shows as a longer trace without the rest being drawn. The events
// a stopped generator does return are the unstopped one's prefix.
std::vector<TraceEvent> GenerateArrivalTrace(const TraceConfig& config,
                                             const ArrivalGenConfig& arrivals,
                                             size_t limit = kUnlimitedArrivals);

// Why `event` cannot follow an arrival at `previous_arrival_s` in a trace,
// or null if it can. A trace replays in arrival order from t = 0, so an
// arrival time must be finite, non-negative and not before the previous
// one; a lifetime must be positive and finite, and the minimum size must
// fit within the size. The first event's previous arrival is 0.
const char* TraceEventError(const TraceEvent& event, double previous_arrival_s);

// Why GenerateArrivalTrace cannot run on `config`, or null if it can,
// naming the first field at fault. The horizon must be non-negative and
// finite, and the arrival rate positive and finite: the arrival clock only
// stops at the horizon, so a rate of zero or less would never reach it.
// The lifetimes are a bounded Pareto, which needs a positive, finite tail
// index, 0 < min_lifetime_s < max_lifetime_s < inf, and each bound raised
// to the tail index distinct and (with their product) within a double's
// normal range; every arrival draws from the catalog, which must not be
// empty. Only a generated trace needs
// this: an explicit trace leaves these fields unused.
const char* TraceConfigError(const TraceConfig& config);

// "event <index>: <reason>" for the first event of `trace` that breaks
// TraceEventError's rules; "" for a valid trace. The CSV loader applies
// the same rules row by row.
std::string ValidateTrace(const std::vector<TraceEvent>& trace);

// Mean offered load of a config against a cluster: arrival_rate * E[lifetime]
// * E[vm dominant share] / cluster capacity. Used to derive the arrival rate
// for a target overcommitment level (the Figure 8c x-axis).
double MeanVmCpu(const TraceConfig& config);
double MeanLifetimeS(const TraceConfig& config);

// Returns a copy of `config` with the arrival rate chosen so the steady-state
// offered CPU load is `target_load` times the cluster CPU capacity
// (target_load = 1.6 reproduces "1.6x utilization").
TraceConfig WithTargetLoad(const TraceConfig& config, double target_load,
                           int num_servers, const ResourceVector& server_capacity);

}  // namespace defl

#endif  // SRC_CLUSTER_TRACE_H_

#include "src/cluster/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/rng.h"

namespace defl {

std::vector<VmCatalogEntry> DefaultVmCatalog() {
  // Sizes follow a typical cloud catalog (4 GB per core, I/O scaled with
  // size). Minimum fractions per application class: Spark tolerates deep
  // deflation (task scale-down), memcached needs enough memory for its hot
  // set, SpecJBB needs live heap plus headroom.
  // Minimum fractions follow the Figure 1 deflation-tolerance curves: Spark
  // and batch jobs survive 80-90% deflation, memcached needs its hot set,
  // SpecJBB needs live heap plus headroom.
  return {
      {"spark", ResourceVector(4.0, 16384.0, 100.0, 500.0), 0.10, 0.35},
      {"spark-large", ResourceVector(8.0, 32768.0, 200.0, 1000.0), 0.10, 0.10},
      {"memcached", ResourceVector(2.0, 8192.0, 50.0, 500.0), 0.20, 0.25},
      {"specjbb", ResourceVector(4.0, 16384.0, 50.0, 250.0), 0.30, 0.15},
      {"batch", ResourceVector(1.0, 4096.0, 25.0, 100.0), 0.05, 0.15},
  };
}

namespace {

// One trace event at arrival time t; draws (catalog pick, lifetime,
// priority) from `rng` in the exact per-event order GenerateTrace has always
// used, so both generators attach identical workloads to a given arrival
// sequence position.
TraceEvent SampleEvent(const TraceConfig& config, double total_weight, double t,
                       int64_t id, Rng& rng) {
  // Pick a catalog entry by weight.
  double pick = rng.NextDouble() * total_weight;
  const VmCatalogEntry* chosen = &config.catalog.back();
  for (const VmCatalogEntry& entry : config.catalog) {
    pick -= entry.weight;
    if (pick <= 0.0) {
      chosen = &entry;
      break;
    }
  }

  TraceEvent event;
  event.arrival_s = t;
  event.lifetime_s = rng.BoundedPareto(config.min_lifetime_s, config.max_lifetime_s,
                                       config.lifetime_alpha);
  event.spec.name = chosen->app + "-" + std::to_string(id);
  event.spec.size = chosen->size;
  event.spec.priority = rng.Chance(config.low_priority_fraction) ? VmPriority::kLow
                                                                 : VmPriority::kHigh;
  event.spec.min_size = chosen->size * chosen->min_fraction;
  return event;
}

double TotalCatalogWeight(const TraceConfig& config) {
  double total_weight = 0.0;
  for (const VmCatalogEntry& entry : config.catalog) {
    total_weight += entry.weight;
  }
  return total_weight;
}

// GenerateTrace's arrivals, stopped once `limit` events are drawn.
std::vector<TraceEvent> FlatTrace(const TraceConfig& config, size_t limit) {
  assert(config.arrival_rate_per_s > 0.0 && !config.catalog.empty());
  Rng rng(config.seed);
  const double total_weight = TotalCatalogWeight(config);

  // Room for the Poisson count's mean + 6 sigma, so the vector is not
  // regrown -- and briefly held twice -- while it fills. Capped (about
  // 0.5 GB of events): an absurd rate must not claim its whole trace's
  // memory before one event exists.
  constexpr double kMaxReservedEvents = 1 << 22;
  std::vector<TraceEvent> events;
  const double mean = config.arrival_rate_per_s * config.duration_s;
  if (mean > 0.0) {
    events.reserve(static_cast<size_t>(
        std::min(mean + 6.0 * std::sqrt(mean), kMaxReservedEvents)));
  }
  double t = rng.Exponential(config.arrival_rate_per_s);
  int64_t next_id = 0;
  while (t < config.duration_s && events.size() < limit) {
    events.push_back(SampleEvent(config, total_weight, t, next_id++, rng));
    t += rng.Exponential(config.arrival_rate_per_s);
  }
  return events;
}

// GenerateDiurnalTrace's arrivals, stopped once `limit` events are drawn.
std::vector<TraceEvent> DiurnalTrace(const TraceConfig& config,
                                     const ArrivalGenConfig& arrivals, size_t limit) {
  assert(config.arrival_rate_per_s > 0.0 && !config.catalog.empty());
  const std::vector<double> times = GenerateArrivalTimes(
      arrivals, config.arrival_rate_per_s, config.duration_s, limit);
  Rng rng(config.seed);
  const double total_weight = TotalCatalogWeight(config);

  std::vector<TraceEvent> events;
  events.reserve(times.size());
  int64_t next_id = 0;
  for (const double t : times) {
    events.push_back(SampleEvent(config, total_weight, t, next_id++, rng));
  }
  return events;
}

}  // namespace

std::vector<TraceEvent> GenerateTrace(const TraceConfig& config) {
  return FlatTrace(config, kUnlimitedArrivals);
}

std::vector<TraceEvent> GenerateDiurnalTrace(const TraceConfig& config,
                                             const ArrivalGenConfig& arrivals) {
  return DiurnalTrace(config, arrivals, kUnlimitedArrivals);
}

std::vector<TraceEvent> GenerateArrivalTrace(const TraceConfig& config,
                                             const ArrivalGenConfig& arrivals,
                                             size_t limit) {
  return arrivals.enabled ? DiurnalTrace(config, arrivals, limit)
                          : FlatTrace(config, limit);
}

const char* TraceEventError(const TraceEvent& event, double previous_arrival_s) {
  if (!std::isfinite(event.arrival_s)) {
    return "arrival time is not finite";
  }
  if (event.arrival_s < 0.0) {
    return "arrival time is negative";
  }
  if (event.arrival_s < previous_arrival_s) {
    return "arrivals not sorted";
  }
  if (!(event.lifetime_s > 0.0) || !std::isfinite(event.lifetime_s)) {
    return "lifetime is not positive and finite";
  }
  if (!event.spec.min_size.AllLeq(event.spec.size)) {
    return "min size exceeds size";
  }
  return nullptr;
}

const char* TraceConfigError(const TraceConfig& config) {
  if (!(config.duration_s >= 0.0) || !std::isfinite(config.duration_s)) {
    return "trace.duration_s must be non-negative and finite";
  }
  if (!(config.arrival_rate_per_s > 0.0) || !std::isfinite(config.arrival_rate_per_s)) {
    return "trace.arrival_rate_per_s must be positive and finite";
  }
  if (!(config.lifetime_alpha > 0.0) || !std::isfinite(config.lifetime_alpha)) {
    return "trace.lifetime_alpha must be positive and finite";
  }
  if (!(config.min_lifetime_s > 0.0) || !std::isfinite(config.min_lifetime_s)) {
    return "trace.min_lifetime_s must be positive and finite";
  }
  if (!(config.max_lifetime_s > config.min_lifetime_s) ||
      !std::isfinite(config.max_lifetime_s)) {
    return "trace.max_lifetime_s must be finite and exceed trace.min_lifetime_s";
  }
  // Rng::BoundedPareto divides by min^alpha * max^alpha: once either power
  // leaves a double's normal range, every lifetime it draws is NaN or 0,
  // and once the two round to one value, every lifetime is 1 s.
  const double la = std::pow(config.min_lifetime_s, config.lifetime_alpha);
  const double ha = std::pow(config.max_lifetime_s, config.lifetime_alpha);
  if (!std::isnormal(la) || !std::isnormal(ha) || !std::isnormal(la * ha) || !(la < ha)) {
    return "trace.lifetime_alpha is outside the bounded Pareto's numeric range "
           "for this lifetime range";
  }
  if (config.catalog.empty()) {
    return "trace.catalog must not be empty";
  }
  return nullptr;
}

std::string ValidateTrace(const std::vector<TraceEvent>& trace) {
  double previous_arrival_s = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (const char* reason = TraceEventError(trace[i], previous_arrival_s)) {
      return "event " + std::to_string(i) + ": " + reason;
    }
    previous_arrival_s = trace[i].arrival_s;
  }
  return "";
}

double MeanVmCpu(const TraceConfig& config) {
  double total_weight = 0.0;
  double weighted_cpu = 0.0;
  for (const VmCatalogEntry& entry : config.catalog) {
    total_weight += entry.weight;
    weighted_cpu += entry.weight * entry.size.cpu();
  }
  return total_weight > 0.0 ? weighted_cpu / total_weight : 0.0;
}

double MeanLifetimeS(const TraceConfig& config) {
  // Mean of a bounded Pareto on [L, H] with tail alpha (alpha != 1).
  const double l = config.min_lifetime_s;
  const double h = config.max_lifetime_s;
  const double a = config.lifetime_alpha;
  const double la = std::pow(l, a);
  const double ha = std::pow(h, a);
  return la / (1.0 - la / ha) * a / (a - 1.0) *
         (1.0 / std::pow(l, a - 1.0) - 1.0 / std::pow(h, a - 1.0));
}

TraceConfig WithTargetLoad(const TraceConfig& config, double target_load,
                           int num_servers, const ResourceVector& server_capacity) {
  assert(target_load > 0.0);
  TraceConfig out = config;
  const double cluster_cpu = num_servers * server_capacity.cpu();
  // Little's law: offered CPU = rate * E[lifetime] * E[vm cpu].
  out.arrival_rate_per_s =
      target_load * cluster_cpu / (MeanLifetimeS(config) * MeanVmCpu(config));
  return out;
}

}  // namespace defl

// Serial object-graph placement: the oracle that placement_test and
// fleet_view_properties_test hold PlaceVmFleet to. It reads availability
// through the Server accessors instead of the FleetView columns, and makes
// the same decision: first feasible index for first-fit, highest fitness
// with the lowest index breaking ties for best-fit, and for 2-choices the
// same RNG draws followed by a first-fit fallback.
#ifndef TESTS_CLUSTER_PLACEMENT_REFERENCE_H_
#define TESTS_CLUSTER_PLACEMENT_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/cluster/placement.h"
#include "src/hypervisor/server.h"

namespace defl {

inline ResourceVector ServerAvailability(const Server& server, AvailabilityMode mode) {
  switch (mode) {
    case AvailabilityMode::kFreeOnly:
      return server.Free();
    case AvailabilityMode::kFreePlusDeflatable:
      return server.Availability();
    case AvailabilityMode::kFreePlusPreemptible:
      return server.Free() + server.Preemptible();
  }
  return server.Free();
}

inline Result<size_t> PlaceVm(const ResourceVector& demand,
                              const std::vector<Server*>& servers,
                              PlacementPolicy policy, Rng& rng,
                              AvailabilityMode mode = AvailabilityMode::kFreePlusDeflatable) {
  if (servers.empty()) {
    return Error{"no servers"};
  }
  const auto feasible = [&](size_t i) {
    return demand.AllLeq(ServerAvailability(*servers[i], mode));
  };
  const auto fitness = [&](size_t i) {
    return PlacementFitness(demand, ServerAvailability(*servers[i], mode));
  };
  const auto first_fit = [&]() -> Result<size_t> {
    for (size_t i = 0; i < servers.size(); ++i) {
      if (feasible(i)) {
        return i;
      }
    }
    return Error{"no feasible server"};
  };
  if (policy == PlacementPolicy::kTwoChoices) {
    const auto count = static_cast<int64_t>(servers.size());
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto a = static_cast<size_t>(rng.UniformInt(0, count - 1));
      size_t b = a;
      if (count >= 2) {
        b = static_cast<size_t>(rng.UniformInt(0, count - 2));
        b += b >= a ? 1 : 0;
      }
      const bool fa = feasible(a);
      const bool fb = b != a && feasible(b);
      if (fa && fb) {
        return fitness(a) >= fitness(b) ? a : b;
      }
      if (fa || fb) {
        return fa ? a : b;
      }
    }
    return first_fit();
  }
  if (policy == PlacementPolicy::kFirstFit) {
    return first_fit();
  }
  size_t best = SIZE_MAX;
  double best_fitness = -1.0;
  for (size_t i = 0; i < servers.size(); ++i) {
    if (feasible(i) && (best == SIZE_MAX || fitness(i) > best_fitness)) {
      best = i;
      best_fitness = fitness(i);
    }
  }
  if (best == SIZE_MAX) {
    return Error{"no feasible server"};
  }
  return best;
}

}  // namespace defl

#endif  // TESTS_CLUSTER_PLACEMENT_REFERENCE_H_

#include "src/cluster/cluster_sim.h"

#include <cassert>

#include "src/cluster/sim_session.h"

namespace defl {

ClusterSimResult RunClusterSim(const ClusterSimConfig& config) {
  Result<SimSession> session = SimSession::Open(config);
  // The batch entry point has no error channel; configs that SimSession
  // rejects (non-positive server count, zero sample period, ...) were
  // undefined behavior here before the session API existed.
  assert(session.ok() && "invalid ClusterSimConfig; use SimSession::Open for errors");
  if (!session.ok()) {
    return ClusterSimResult{};
  }
  return session.value().Finish();
}

}  // namespace defl

// The one bound on how often a periodic action may fire over a run: SLO
// control ticks (a workload spec's slo-period-s, a what-if slo query's
// period=), durable checkpoints, proactive reinflation sweeps, and the
// sample, reinflation and SLO ticks a what-if child runs.
// A period that would fire more often than this would keep a run busy far
// past any useful resolution -- a 1e-20 h checkpoint cadence never
// finishes -- so every such input is rejected before the run starts.
#ifndef SRC_COMMON_CADENCE_H_
#define SRC_COMMON_CADENCE_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace defl {

constexpr int kMaxCadenceTicks = 100000;

// Ok when a period of `period_s` (<= 0 means off) fires at most
// kMaxCadenceTicks times over `horizon_s`; otherwise an error that names
// `what` (the flag or spec line that set the period). Allocates only to
// build the error, since a what-if child checks its cadences per query.
inline Result<bool> CheckCadence(std::string_view what, double period_s,
                                 double horizon_s) {
  const double ticks = horizon_s / period_s;
  if (period_s <= 0.0 || ticks <= kMaxCadenceTicks) {
    return true;
  }
  char detail[128];
  std::snprintf(detail, sizeof(detail), " fires %.3g times over the %.3g h horizon (max %d)",
                ticks, horizon_s / 3600.0, kMaxCadenceTicks);
  return Error{std::string(what) + detail};
}

}  // namespace defl

#endif  // SRC_COMMON_CADENCE_H_

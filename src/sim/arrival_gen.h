// Synthetic open-loop arrival-time generator with diurnal and bursty
// structure: a sinusoidal base rate (the day/night cycle every production
// trace shows) overlaid with Poisson-arriving burst windows that multiply
// the instantaneous rate. Sampling uses Lewis-Shedler thinning against the
// rate ceiling, so the output is an exact draw from the non-homogeneous
// Poisson process and -- like everything stochastic in this repository --
// fully determined by the seed.
//
// This layer produces arrival TIMES only; the trace layer
// (GenerateDiurnalTrace in src/cluster/trace.h) attaches VM shapes,
// lifetimes, and priorities to them.
#ifndef SRC_SIM_ARRIVAL_GEN_H_
#define SRC_SIM_ARRIVAL_GEN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace defl {

struct ArrivalGenConfig {
  // Off by default: the flat-rate Poisson generator (GenerateTrace) stays
  // the canonical path and existing outputs are untouched.
  bool enabled = false;

  // rate(t) = base * (1 + amplitude * sin(2*pi*(t - phase)/period)), so
  // `base` stays the MEAN rate over whole periods. amplitude in [0, 1]
  // (0 = flat, 1 = rate touches zero at the trough).
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 24.0 * 3600.0;
  // Shifts the sinusoid: the peak sits at phase + period/4.
  double diurnal_phase_s = 0.0;

  // Burst windows arrive as their own Poisson process (rate of ONSETS per
  // second); while inside a window, the instantaneous rate is multiplied by
  // burst_multiplier (> 1 spikes, < 1 dips, 1 disables).
  double burst_rate_per_s = 0.0;
  double burst_duration_s = 600.0;
  double burst_multiplier = 1.0;

  uint64_t seed = 7;
};

// Empty string when valid, else a description of the offending field.
std::string ValidateArrivalGen(const ArrivalGenConfig& config);

// The `limit` of a generator that runs to its horizon.
inline constexpr size_t kUnlimitedArrivals = std::numeric_limits<size_t>::max();

// Strictly increasing arrival times in [0, duration_s), drawn by thinning a
// homogeneous Poisson process at the rate ceiling. base_rate_per_s is the
// mean rate the diurnal modulation oscillates around (e.g. derived from
// WithTargetLoad); the expected count is ~ base * duration * (1 +
// burst_time_fraction * (multiplier - 1)). Stops early once it holds
// `limit` times; the times it does return are the same either way.
std::vector<double> GenerateArrivalTimes(const ArrivalGenConfig& config,
                                         double base_rate_per_s, double duration_s,
                                         size_t limit = kUnlimitedArrivals);

}  // namespace defl

#endif  // SRC_SIM_ARRIVAL_GEN_H_

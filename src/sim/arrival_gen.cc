#include "src/sim/arrival_gen.h"

#include <algorithm>
#include <cmath>

namespace defl {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// True when t falls inside a burst window. `cursor` advances monotonically
// over the sorted onsets (all windows share one duration, so window ends are
// sorted too): amortized O(1) across an ascending sweep of t.
bool InBurst(const std::vector<double>& burst_onsets, double duration_s, double t,
             size_t* cursor) {
  while (*cursor < burst_onsets.size() &&
         burst_onsets[*cursor] + duration_s <= t) {
    ++(*cursor);
  }
  return *cursor < burst_onsets.size() && burst_onsets[*cursor] <= t;
}

double DiurnalFactor(const ArrivalGenConfig& config, double t) {
  if (config.diurnal_amplitude == 0.0) {
    return 1.0;
  }
  return 1.0 + config.diurnal_amplitude *
                   std::sin(kTwoPi * (t - config.diurnal_phase_s) /
                            config.diurnal_period_s);
}

}  // namespace

std::string ValidateArrivalGen(const ArrivalGenConfig& config) {
  if (config.diurnal_amplitude < 0.0 || config.diurnal_amplitude > 1.0) {
    return "diurnal amplitude must be in [0, 1]";
  }
  if (config.diurnal_period_s <= 0.0) {
    return "diurnal period must be positive";
  }
  if (config.burst_rate_per_s < 0.0) {
    return "burst rate must be non-negative";
  }
  if (config.burst_duration_s < 0.0) {
    return "burst duration must be non-negative";
  }
  if (config.burst_multiplier < 0.0) {
    return "burst multiplier must be non-negative";
  }
  return "";
}

std::vector<double> GenerateArrivalTimes(const ArrivalGenConfig& config,
                                         double base_rate_per_s, double duration_s,
                                         size_t limit) {
  std::vector<double> out;
  if (base_rate_per_s <= 0.0 || duration_s <= 0.0) {
    return out;
  }
  Rng rng(config.seed);

  // Burst window onsets first, as their own Poisson process, so the thinning
  // draw sequence below is independent of how many windows there are.
  std::vector<double> burst_onsets;
  const bool bursts_active = config.burst_rate_per_s > 0.0 &&
                             config.burst_duration_s > 0.0 &&
                             config.burst_multiplier != 1.0;
  if (bursts_active) {
    double t = rng.Exponential(config.burst_rate_per_s);
    while (t < duration_s) {
      burst_onsets.push_back(t);
      t += rng.Exponential(config.burst_rate_per_s);
    }
  }

  // Thinning ceiling: diurnal peak times the burst boost (bursts below 1
  // only thin harder, so they do not raise the ceiling).
  const double boost = bursts_active ? std::max(config.burst_multiplier, 1.0) : 1.0;
  const double rate_max = base_rate_per_s * (1.0 + config.diurnal_amplitude) * boost;

  // Room for 10% over the mean count, capped like GenerateTrace's reserve:
  // an absurd rate must not claim (or overflow) its whole trace's size
  // before one arrival exists.
  constexpr double kMaxReservedArrivals = 1 << 22;
  out.reserve(static_cast<size_t>(
                  std::min(base_rate_per_s * duration_s * 1.1, kMaxReservedArrivals)) +
              16);
  size_t cursor = 0;
  double t = rng.Exponential(rate_max);
  while (t < duration_s && out.size() < limit) {
    double rate = base_rate_per_s * DiurnalFactor(config, t);
    if (bursts_active && InBurst(burst_onsets, config.burst_duration_s, t, &cursor)) {
      rate *= config.burst_multiplier;
    }
    // Accept with probability rate / rate_max.
    if (rng.NextDouble() * rate_max < rate) {
      out.push_back(t);
    }
    t += rng.Exponential(rate_max);
  }
  return out;
}

}  // namespace defl

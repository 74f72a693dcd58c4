#include "src/common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace defl {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0, 1) with full double precision.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // Debiased modulo (rejection) sampling.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t x = NextU64();
  while (x >= limit) {
    x = NextU64();
  }
  return lo + static_cast<int64_t>(x % span);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  // 1 - NextDouble() is in (0, 1], so the log is finite.
  return -std::log(1.0 - NextDouble()) / rate;
}

double Rng::Normal(double mean, double stddev) {
  const double u1 = 1.0 - NextDouble();  // (0, 1]
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  assert(lo > 0.0 && hi > lo && alpha > 0.0);
  const double u = NextDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

bool Rng::Chance(double p) { return NextDouble() < p; }

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(UniformInt(0, i));
    std::swap(v[static_cast<size_t>(i)], v[j]);
  }
  return v;
}

Rng Rng::Fork() { return Rng(NextU64()); }

// --- ZipfDistribution (Hormann rejection-inversion) ---

ZipfDistribution::ZipfDistribution(int64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1 && s > 0.0);
  h_x1_ = H(1.5) - 1.0;
  h_n_ = H(static_cast<double>(n) + 0.5);
  t_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -s));
}

double ZipfDistribution::H(double x) const {
  // Integral of t^-s: primitive function used by rejection-inversion.
  if (std::abs(s_ - 1.0) < 1e-12) {
    return std::log(x);
  }
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfDistribution::HInverse(double u) const {
  if (std::abs(s_ - 1.0) < 1e-12) {
    return std::exp(u);
  }
  return std::pow(1.0 + u * (1.0 - s_), 1.0 / (1.0 - s_));
}

int64_t ZipfDistribution::Sample(Rng& rng) const {
  if (n_ == 1) {
    return 1;
  }
  while (true) {
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    const double x = HInverse(u);
    auto k = static_cast<int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    const double kd = static_cast<double>(k);
    if (kd - x <= t_ || u >= H(kd + 0.5) - std::pow(kd, -s_)) {
      return k;
    }
  }
}

double GeneralizedHarmonic(int64_t k, double s) {
  if (k <= 0) {
    return 0.0;
  }
  constexpr int64_t kExactTerms = 256;
  double sum = 0.0;
  const int64_t head = std::min(k, kExactTerms);
  for (int64_t i = 1; i <= head; ++i) {
    sum += std::pow(static_cast<double>(i), -s);
  }
  if (k <= kExactTerms) {
    return sum;
  }
  // Euler-Maclaurin continuation from kExactTerms to k:
  //   sum_{i=a+1..k} i^-s ~= integral_a^k x^-s dx + (k^-s - a^-s)/2 + ...
  const double a = static_cast<double>(kExactTerms);
  const double kd = static_cast<double>(k);
  double integral;
  if (std::abs(s - 1.0) < 1e-12) {
    integral = std::log(kd / a);
  } else {
    integral = (std::pow(kd, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
  }
  sum += integral + 0.5 * (std::pow(kd, -s) - std::pow(a, -s));
  // First Bernoulli correction term: s/12 * (a^{-s-1} - k^{-s-1}).
  sum += s / 12.0 * (std::pow(a, -s - 1.0) - std::pow(kd, -s - 1.0));
  return sum;
}

double ZipfHeadFraction(int64_t n, int64_t k, double s) {
  if (n <= 0 || k <= 0) {
    return 0.0;
  }
  if (k >= n) {
    return 1.0;
  }
  return GeneralizedHarmonic(k, s) / GeneralizedHarmonic(n, s);
}

}  // namespace defl

// Deterministic pseudo-random number generation and the distributions used by
// the deflation simulator (uniform, exponential, lognormal, bounded Pareto,
// Zipf). All stochastic components in this repository draw from an explicitly
// seeded Rng so every experiment is reproducible run-to-run.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace defl {

// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
// Seeded through SplitMix64 so that any 64-bit seed (including 0) yields a
// well-mixed initial state.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Raw 64 uniform bits.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  // Standard normal via Box-Muller (no cached spare; stateless per call).
  double Normal(double mean, double stddev);

  // Bounded Pareto on [lo, hi] with tail index alpha. Heavy-tailed lifetimes.
  double BoundedPareto(double lo, double hi, double alpha);

  // Bernoulli trial.
  bool Chance(double p);

  // Fisher-Yates shuffle of an index range [0, n).
  std::vector<int> Permutation(int n);

  // Derive an independent child stream (e.g. one per simulated server).
  Rng Fork();

  // Raw generator state, for deterministic checkpoint/restore (SimSession
  // snapshots). Restoring the saved words resumes the exact draw sequence.
  std::array<uint64_t, 4> SaveState() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void RestoreState(const std::array<uint64_t, 4>& state) {
    for (int i = 0; i < 4; ++i) {
      s_[i] = state[static_cast<size_t>(i)];
    }
  }

 private:
  uint64_t s_[4];
};

// Samples ranks from a Zipf(s) popularity distribution over {1..n} using
// Hormann's rejection-inversion method; O(1) per sample independent of n.
class ZipfDistribution {
 public:
  // n: universe size (>= 1), s: skew exponent (> 0, s != 1 handled too).
  ZipfDistribution(int64_t n, double s);

  // Returns a rank in [1, n]; rank 1 is the most popular item.
  int64_t Sample(Rng& rng) const;

  int64_t universe() const { return n_; }
  double skew() const { return s_; }

 private:
  double H(double x) const;
  double HInverse(double u) const;

  int64_t n_;
  double s_;
  double h_x1_;
  double h_n_;
  double t_;  // threshold for the rejection test
};

// Generalized harmonic number H_{k,s} = sum_{i=1..k} i^{-s}, computed with an
// Euler-Maclaurin tail approximation so it is O(1) for large k. Used for
// analytic LRU/Zipf hit-rate curves (fraction of accesses covered by the k
// most popular of n items).
double GeneralizedHarmonic(int64_t k, double s);

// Fraction of a Zipf(s) access stream over n items that falls on the top k
// items: H_{k,s} / H_{n,s}. This is the classic IRM approximation of the LRU
// hit rate with capacity k. Returns a value in [0, 1].
double ZipfHeadFraction(int64_t n, int64_t k, double s);

}  // namespace defl

#endif  // SRC_COMMON_RNG_H_

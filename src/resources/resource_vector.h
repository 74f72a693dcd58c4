// ResourceVector: the 4-dimensional resource quantity used throughout the
// paper and this reproduction -- (CPU cores, memory MB, disk bandwidth MB/s,
// network bandwidth MB/s). Deflation targets, VM specs, server capacities and
// reclamation results are all ResourceVectors.
#ifndef SRC_RESOURCES_RESOURCE_VECTOR_H_
#define SRC_RESOURCES_RESOURCE_VECTOR_H_

#include <array>
#include <cstddef>
#include <string>

namespace defl {

enum class ResourceKind : int { kCpu = 0, kMemory = 1, kDiskBw = 2, kNetBw = 3 };

inline constexpr int kNumResources = 4;
inline constexpr std::array<ResourceKind, kNumResources> kAllResources = {
    ResourceKind::kCpu, ResourceKind::kMemory, ResourceKind::kDiskBw, ResourceKind::kNetBw};

const char* ResourceKindName(ResourceKind kind);

// Slack of every placement feasibility test: a demand fits an availability
// when no dimension exceeds it by more than this (AllLeq's default, the
// placement scan and its block-max skip).
inline constexpr double kFeasibilityEps = 1e-9;

class ResourceVector {
 public:
  constexpr ResourceVector() : v_{} {}
  constexpr ResourceVector(double cpu, double memory_mb, double disk_bw = 0.0,
                           double net_bw = 0.0)
      : v_{cpu, memory_mb, disk_bw, net_bw} {}

  static constexpr ResourceVector Zero() { return ResourceVector(); }
  // All dimensions set to the same value (useful for scalar comparisons).
  static constexpr ResourceVector Uniform(double x) { return ResourceVector(x, x, x, x); }

  double cpu() const { return v_[0]; }
  double memory_mb() const { return v_[1]; }
  double disk_bw() const { return v_[2]; }
  double net_bw() const { return v_[3]; }

  double operator[](ResourceKind kind) const { return v_[static_cast<size_t>(kind)]; }
  double& operator[](ResourceKind kind) { return v_[static_cast<size_t>(kind)]; }

  ResourceVector operator+(const ResourceVector& o) const;
  ResourceVector operator-(const ResourceVector& o) const;
  ResourceVector operator*(double s) const;
  ResourceVector operator/(double s) const;
  ResourceVector& operator+=(const ResourceVector& o);
  ResourceVector& operator-=(const ResourceVector& o);
  bool operator==(const ResourceVector& o) const = default;

  // Element-wise operations.
  ResourceVector Min(const ResourceVector& o) const;
  ResourceVector Max(const ResourceVector& o) const;
  // Clamps every dimension to be >= 0.
  ResourceVector ClampNonNegative() const;
  // Element-wise multiply (e.g. scaling a spec by per-dimension fractions).
  ResourceVector Scale(const ResourceVector& fractions) const;
  // Element-wise divide; dimensions where `o` is 0 yield 0.
  ResourceVector SafeDivide(const ResourceVector& o) const;

  // True if every dimension of this is <= the corresponding dim of o + eps.
  bool AllLeq(const ResourceVector& o, double eps = kFeasibilityEps) const;
  // True if any dimension exceeds eps.
  bool AnyPositive(double eps = 1e-9) const;
  bool IsZero(double eps = 1e-9) const { return !AnyPositive(eps); }

  double Dot(const ResourceVector& o) const;
  double Norm() const;
  // max_i v_i; the "dominant" magnitude used for aggregate deflation checks.
  double MaxComponent() const;
  double MinComponent() const;
  double Sum() const;

  // Cosine similarity in [0, 1] for non-negative vectors; the paper's
  // placement "fitness" between a VM demand and server availability.
  // Returns 0 if either vector is all-zero.
  static double CosineSimilarity(const ResourceVector& a, const ResourceVector& b);

  // "(cpu=4, mem=16384MB, disk=100MB/s, net=1000MB/s)"
  std::string ToString() const;

 private:
  std::array<double, kNumResources> v_;
};

inline ResourceVector operator*(double s, const ResourceVector& v) { return v * s; }

}  // namespace defl

#endif  // SRC_RESOURCES_RESOURCE_VECTOR_H_

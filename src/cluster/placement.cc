#include "src/cluster/placement.h"

#include <algorithm>
#include <cmath>

namespace defl {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kBestFit:
      return "best-fit";
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kTwoChoices:
      return "2-choices";
  }
  return "?";
}

Result<PlacementPolicy> PlacementPolicyFromName(const std::string& name) {
  for (const PlacementPolicy policy : {PlacementPolicy::kBestFit, PlacementPolicy::kFirstFit,
                                       PlacementPolicy::kTwoChoices}) {
    if (name == PlacementPolicyName(policy)) {
      return policy;
    }
  }
  return Error{"unknown placement policy '" + name +
               "' (expected best-fit, first-fit, or 2-choices)"};
}

double PlacementFitness(const ResourceVector& demand,
                        const ResourceVector& availability) {
  return ResourceVector::CosineSimilarity(demand, availability);
}

namespace {

// Outcome of one candidate scan: `first_feasible` serves first-fit,
// (best_fitness, best_feasible) serves best-fit.
struct ScanResult {
  size_t first_feasible = SIZE_MAX;
  size_t best_feasible = SIZE_MAX;
  double best_fitness = -1.0;
};

// The two column sets whose elementwise sum is a row's availability under
// one mode. `extra` is null for kFreeOnly; the scan loop is specialized on
// that so the common path stays branch-free per candidate.
struct FleetCols {
  const double* base[kNumResources];
  const double* extra[kNumResources];
};

FleetCols ModeColumns(const FleetView& fleet, AvailabilityMode mode) {
  FleetCols cols;
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    cols.base[k] = fleet.free_col(kind);
    cols.extra[k] = fleet.extra_col(kind, mode);
  }
  return cols;
}

// True when some dimension of the demand exceeds a block's maximum
// availability by more than the epsilon. fl(a + eps) is monotone in a, so
// that dimension fails the row test below for every row of the block.
bool BlockCannotFit(const double* max, const double (&d)[kNumResources]) {
  bool cannot = false;
  for (int k = 0; k < kNumResources; ++k) {
    cannot |= d[k] > max[k] + kFeasibilityEps;
  }
  return cannot;
}

// Scans the candidate positions in ascending order, one block of rows at a
// time, and jumps past every block whose maximum cannot hold the demand:
// no row there is feasible, so the first feasible position and the
// best-fit argmax are those of a scan that visits every candidate. Every
// floating-point operation replicates the ResourceVector path in the same
// order: availability = base (+ extra) per dimension (the same adds as
// Server::Availability), feasibility = AllLeq's per-dimension compare with
// the same epsilon, fitness = CosineSimilarity's dot / (|d| * |a|) with
// dimension-order accumulation and the degenerate-denominator guard. The
// row loop reads only contiguous arrays: no pointer-chasing, no virtual
// calls, and the compiler can vectorize the per-dimension math.
template <bool kHasExtra>
ScanResult ScanFleetImpl(FleetView& fleet, AvailabilityMode mode, const FleetCols& cols,
                         const double (&d)[kNumResources], double demand_norm,
                         const std::vector<uint32_t>& candidates, bool need_fitness) {
  constexpr size_t kBlockRows = FleetView::kBlockRows;
  ScanResult out;
  const size_t n = candidates.size();
  size_t i = 0;
  while (i < n) {
    // Positions [i, end) hold this block's candidates. Candidates ascend,
    // so at most block_end - candidates[i] of them lie in the block. When
    // the last of those positions is still in it (every row of the block
    // is a candidate), that bound is the end; otherwise a binary search
    // over at most kBlockRows positions finds it.
    const size_t block = candidates[i] / kBlockRows;
    const size_t block_end = (block + 1) * kBlockRows;
    size_t end = std::min(n, i + (block_end - candidates[i]));
    if (candidates[end - 1] >= block_end) {
      const auto begin = candidates.begin();
      end = static_cast<size_t>(std::lower_bound(begin + static_cast<std::ptrdiff_t>(i),
                                                 begin + static_cast<std::ptrdiff_t>(end),
                                                 block_end) -
                                begin);
    }
    if (BlockCannotFit(fleet.BlockMax(block, mode), d)) {
      i = end;
      continue;
    }
    for (; i < end; ++i) {
      const size_t row = candidates[i];
      double a[kNumResources];
      bool feasible = true;
      for (int k = 0; k < kNumResources; ++k) {
        a[k] = kHasExtra ? cols.base[k][row] + cols.extra[k][row] : cols.base[k][row];
        feasible &= !(d[k] > a[k] + kFeasibilityEps);
      }
      if (!feasible) {
        continue;
      }
      if (out.first_feasible == SIZE_MAX) {
        out.first_feasible = i;
        if (!need_fitness) {
          return out;  // first-fit needs nothing past the first hit
        }
      }
      double dot = 0.0;
      double norm2 = 0.0;
      for (int k = 0; k < kNumResources; ++k) {
        dot += d[k] * a[k];
        norm2 += a[k] * a[k];
      }
      const double denom = demand_norm * std::sqrt(norm2);
      const double fitness = denom == 0.0 ? 0.0 : dot / denom;
      if (fitness > out.best_fitness ||
          (fitness == out.best_fitness && i < out.best_feasible)) {
        out.best_fitness = fitness;
        out.best_feasible = i;
      }
    }
  }
  return out;
}

ScanResult ScanFleet(const ResourceVector& demand, FleetView& fleet,
                     const std::vector<uint32_t>& candidates, AvailabilityMode mode,
                     bool need_fitness) {
  const FleetCols cols = ModeColumns(fleet, mode);
  double d[kNumResources];
  for (const ResourceKind kind : kAllResources) {
    d[static_cast<size_t>(kind)] = demand[kind];
  }
  const double demand_norm = demand.Norm();
  return cols.extra[0] != nullptr
             ? ScanFleetImpl<true>(fleet, mode, cols, d, demand_norm, candidates,
                                   need_fitness)
             : ScanFleetImpl<false>(fleet, mode, cols, d, demand_norm, candidates,
                                    need_fitness);
}

}  // namespace

ResourceVector FleetAvailability(const FleetView& fleet, size_t row,
                                 AvailabilityMode mode) {
  // kFreeOnly copies the mirrored Free() bits; the other modes add the
  // second aggregate per dimension exactly like ResourceVector::operator+.
  ResourceVector out;
  for (const ResourceKind kind : kAllResources) {
    const double* extra = fleet.extra_col(kind, mode);
    out[kind] = extra == nullptr ? fleet.free_col(kind)[row]
                                 : fleet.free_col(kind)[row] + extra[row];
  }
  return out;
}

Result<size_t> PlaceVmFleet(const ResourceVector& demand, FleetView& fleet,
                            const std::vector<uint32_t>& candidates,
                            PlacementPolicy policy, Rng& rng, AvailabilityMode mode) {
  if (candidates.empty()) {
    return Error{"no servers"};
  }
  // Bring every dirty row coherent before any column is read; O(1) when
  // nothing mutated since the last probe.
  fleet.Refresh();
  switch (policy) {
    case PlacementPolicy::kFirstFit: {
      const ScanResult scan =
          ScanFleet(demand, fleet, candidates, mode, /*need_fitness=*/false);
      if (scan.first_feasible == SIZE_MAX) {
        return Error{"no feasible server (first-fit)"};
      }
      return scan.first_feasible;
    }

    case PlacementPolicy::kBestFit: {
      const ScanResult scan =
          ScanFleet(demand, fleet, candidates, mode, /*need_fitness=*/true);
      if (scan.best_feasible == SIZE_MAX) {
        return Error{"no feasible server (best-fit)"};
      }
      return scan.best_feasible;
    }

    case PlacementPolicy::kTwoChoices: {
      // Sample two *distinct* random servers and keep the fitter feasible
      // one; retry a few times before falling back to a full first-fit
      // scan. (Sampling with replacement would silently degenerate to one
      // choice whenever both draws land on the same server.)
      constexpr int kAttempts = 8;
      const auto count = static_cast<int64_t>(candidates.size());
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const auto a = static_cast<size_t>(rng.UniformInt(0, count - 1));
        size_t b = a;
        if (count >= 2) {
          // Draw from the count-1 servers that are not `a`.
          b = static_cast<size_t>(rng.UniformInt(0, count - 2));
          if (b >= a) {
            ++b;
          }
        }
        const ResourceVector avail_a = FleetAvailability(fleet, candidates[a], mode);
        const bool fa = demand.AllLeq(avail_a);
        if (b == a) {
          if (fa) {
            return a;
          }
          continue;
        }
        const ResourceVector avail_b = FleetAvailability(fleet, candidates[b], mode);
        const bool fb = demand.AllLeq(avail_b);
        if (fa && fb) {
          const double fit_a = PlacementFitness(demand, avail_a);
          const double fit_b = PlacementFitness(demand, avail_b);
          return fit_a >= fit_b ? a : b;
        }
        if (fa) {
          return a;
        }
        if (fb) {
          return b;
        }
      }
      const ScanResult scan =
          ScanFleet(demand, fleet, candidates, mode, /*need_fitness=*/false);
      if (scan.first_feasible == SIZE_MAX) {
        return Error{"no feasible server (2-choices)"};
      }
      return scan.first_feasible;
    }
  }
  return Error{"unknown policy"};
}

}  // namespace defl

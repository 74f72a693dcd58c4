// Deflation-aware VM placement (Section 5): multi-dimensional bin packing
// where a server's availability is free + deflatable resources, and fitness
// is the cosine similarity between the VM's demand vector and the server's
// availability vector. Three policies from the paper: best-fit, first-fit,
// and 2-choices (sample two random servers, keep the fitter one).
#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/fleet_view.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/resources/resource_vector.h"

namespace defl {

enum class PlacementPolicy { kBestFit, kFirstFit, kTwoChoices };

const char* PlacementPolicyName(PlacementPolicy policy);
// Inverse of PlacementPolicyName; any other name is an error listing the
// valid ones.
Result<PlacementPolicy> PlacementPolicyFromName(const std::string& name);

// fitness(D, A) = (A . D) / (|A| |D|); higher is better.
double PlacementFitness(const ResourceVector& demand, const ResourceVector& availability);

// Availability of one FleetView row under `mode`, assembled from the flat
// columns with the same elementwise adds as the Server accessors
// (Free() + Deflatable() is Server::Availability()).
ResourceVector FleetAvailability(const FleetView& fleet, size_t row,
                                 AvailabilityMode mode);

// Picks a row whose availability (per `mode`) covers `demand`, scanning the
// FleetView's flat columns. `candidates` lists the eligible rows and must
// be ascending: the scan relies on it to jump past a whole block of rows
// that its block maximum rules out. The returned index is a POSITION in
// `candidates`, or an error when no candidate is feasible. Refreshes the
// view first (O(1) when clean). First-fit returns the lowest feasible
// position; best-fit the highest fitness with the lowest position breaking
// ties; 2-choices draws two distinct positions from `rng` up to eight times
// and falls back to a first-fit scan. The serial reference in
// tests/cluster/placement_reference.h computes the same decision, RNG draws
// included, from the Server objects.
Result<size_t> PlaceVmFleet(const ResourceVector& demand, FleetView& fleet,
                            const std::vector<uint32_t>& candidates,
                            PlacementPolicy policy, Rng& rng,
                            AvailabilityMode mode = AvailabilityMode::kFreePlusDeflatable);

}  // namespace defl

#endif  // SRC_CLUSTER_PLACEMENT_H_

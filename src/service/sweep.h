// SweepOrchestrator: fans a parameter grid -- placement policy x fail
// fraction x overcommit target x admission intensity -- over snapshot-seeded
// child sessions and merges the per-cell report lines in canonical grid
// order (DESIGN.md §15). Cells are independent (each forks its own child
// off the service's shared blob), so they run on any number of workers; the
// merge is by flat cell index, never completion order, which is why sweep
// output is byte-identical for every worker count.
//
// Grid file format -- `key = value` lines read by ReadKeyValues
// (src/common/text_parse.h), the reader workload specs use, so `#` starts a
// comment anywhere on a line. List-valued keys are the sweep axes
// (comma-separated), the rest are scalars:
//
//   policy = best-fit, 2-choices        # axis: future placement policy
//   fail-fraction = 0.0, 0.25           # axis: servers crashed up front
//   overcommit-target = 1.0, 1.5        # axis: admission stops at this OC
//   intensity = 0.5, 1.0                # axis: scales the admission budget
//   hours = 2                           # sim-hours each cell then runs
//   shape = 2:4096                      # admitted VM size cpu:mem[:disk[:net]]
//   fail-seed = 7                       # victim-draw seed (shared by cells)
//   limit = 1000                        # admission budget at intensity 1.0
//
// A cell's admission budget is round(intensity x limit), capped at
// kMaxQueryLaunches (10,000), the most launches one what-if query may ask
// for; a `limit` above that cap is a parse error.
#ifndef SRC_SERVICE_SWEEP_H_
#define SRC_SERVICE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/placement.h"
#include "src/common/result.h"
#include "src/resources/resource_vector.h"
#include "src/service/whatif.h"

namespace defl {

struct SweepGrid {
  // Axes, swept in this nesting order (policy outermost, intensity
  // innermost); each must be non-empty.
  std::vector<PlacementPolicy> policies;
  std::vector<double> fail_fractions;      // each in [0, 1]
  std::vector<double> overcommit_targets;  // each > 0; <= current OC = no-op
  std::vector<double> intensities;         // each >= 0; scales `limit`

  // Scalars shared by every cell.
  double hours = 1.0;      // >= 0
  ResourceVector shape = ResourceVector(2.0, 4096.0);
  uint64_t fail_seed = 1;
  // Admissions attempted at intensity 1.0, in [1, kMaxQueryLaunches].
  int64_t limit = 1000;

  int64_t Cells() const {
    return static_cast<int64_t>(policies.size() * fail_fractions.size() *
                                overcommit_targets.size() * intensities.size());
  }
};

// Strict parser: unknown keys, duplicate keys, empty values, malformed or
// non-finite numbers, unknown policy names and out-of-range values fail
// with a "sweep grid:<line>:" error. An axis the grid does not name sweeps
// its one default value.
Result<SweepGrid> ParseSweepGrid(const std::string& text);

class SweepOrchestrator {
 public:
  // The service outlives the orchestrator; only its shared blob is used.
  explicit SweepOrchestrator(const WhatIfService* service)
      : service_(service) {}

  // Runs every cell (on up to `workers` threads) and returns the report:
  // one header line, one line per cell in canonical grid order, and a
  // `# sweep` footer with the cell count and an FNV-1a-64 digest of
  // everything above it. Byte-identical for every worker count.
  Result<std::string> Run(const SweepGrid& grid, int workers) const;

 private:
  const WhatIfService* service_;
};

}  // namespace defl

#endif  // SRC_SERVICE_SWEEP_H_

// WhatIfService: the serving core of `deflation_server` (DESIGN.md §15).
// Loads one snapshot blob into immutable shared memory, then answers
// what-if queries by forking copy-on-restore child sessions off it:
//
//   Result<WhatIfService> service = WhatIfService::Load(std::move(blob));
//   std::string report = service.value().AnswerBatch(queries, /*workers=*/8);
//
// Isolation model: every query gets its own SimSession (restored zero-copy
// via SimSession::RestoreView) and its own fresh TelemetryContext, and runs
// on the one thread that answers it, so concurrent queries share exactly
// one thing -- the const blob -- and an answer depends only on (blob, query). That is
// what makes AnswerBatch byte-identical at every worker count: results are
// written into a slot per query and joined in input order.
#ifndef SRC_SERVICE_WHATIF_H_
#define SRC_SERVICE_WHATIF_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/sim_session.h"
#include "src/common/result.h"
#include "src/service/query.h"

namespace defl {

class WhatIfService {
 public:
  // Takes ownership of the snapshot blob and validates it with one probe
  // restore; a corrupt or version-skewed blob fails here, not per query.
  static Result<WhatIfService> Load(std::string blob);

  // Executes one query on a private child session and renders the answer as
  // a single JSON line (fixed key order, deterministic number rendering).
  // Fails only on restore errors; query-level outcomes (e.g. every
  // placement rejected) are data in the answer, not errors.
  Result<std::string> Answer(const WhatIfQuery& query) const;

  // Answers every query, fanning over `workers` threads (<= 1 = serial on
  // the caller), and joins the lines in input order with a trailing
  // `# batch` footer carrying the query count and an FNV-1a-64 digest of
  // the lines. Output is byte-identical for every worker count. A query
  // whose restore fails yields an {"error": ...} line in its slot.
  std::string AnswerBatch(const std::vector<WhatIfQuery>& queries,
                          int workers) const;

  // Forks a private child session off the shared blob. `telemetry` must be
  // fresh; `placement` >= 0 overrides the future placement policy (the
  // sweep orchestrator's policy axis); `slo` (when non-null and active)
  // overrides the interactive-serving SLO config on the child, enabling it
  // if the snapshot ran without one. Queries parallelize across sessions,
  // never inside one.
  Result<SimSession> RestoreChild(
      TelemetryContext* telemetry, int placement = -1,
      const SimSession::RestoreOptions::SloOverride* slo = nullptr) const;

  // FNV-1a-64 of the base blob; the property suite re-hashes after a
  // concurrent batch to prove no query wrote through the shared bytes.
  uint64_t blob_fnv() const { return blob_fnv_; }
  // Virtual clock / horizon of the base snapshot, from the probe restore.
  double base_now_s() const { return base_now_s_; }
  double base_duration_s() const { return base_duration_s_; }
  const std::string& blob() const { return *blob_; }

 private:
  explicit WhatIfService(std::shared_ptr<const std::string> blob)
      : blob_(std::move(blob)) {}

  std::shared_ptr<const std::string> blob_;
  uint64_t blob_fnv_ = 0;
  double base_now_s_ = 0.0;
  double base_duration_s_ = 0.0;
};

}  // namespace defl

#endif  // SRC_SERVICE_WHATIF_H_

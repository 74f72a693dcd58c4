// WhatIfService: the serving core of `deflation_server` (DESIGN.md §15).
// Decodes one snapshot blob once into an immutable SimSession::Image, then
// answers what-if queries by building copy-on-restore child sessions off it:
//
//   Result<WhatIfService> service = WhatIfService::Load(std::move(blob));
//   std::string report = service.value().AnswerBatch(queries, /*workers=*/8);
//
// Isolation model: every query gets its own SimSession (SimSession::Build
// from the shared image, reading no byte of the blob) and its own fresh
// TelemetryContext, and runs on the one thread that answers it, so
// concurrent queries share only read-only state -- the image and the
// arrival trace it verified -- and an answer depends only on (blob, query).
// That is what makes AnswerBatch byte-identical at every worker count:
// results are written into a slot per query and joined in input order.
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

// The fleet edits what-if queries and sweep cells share. Each caller passes
// its own seed and VM-id base; everything else is a function of the child
// session's state.

// Crashes floor(fraction * healthy + 0.5) of the healthy servers, fraction
// in [0, 1]. Victims come from a private Rng(seed), not the session's
// snapshotted stream -- a partial Fisher-Yates over the ascending healthy
// ids -- and crash in ascending id order: one canonical crash sequence per
// (state, fraction, seed).
struct CrashOutcome {
  int64_t healthy = 0;  // healthy servers before the crash
  int64_t failed = 0;
};
CrashOutcome CrashHealthyFraction(ClusterManager& manager, double fraction,
                                  uint64_t seed);

// Launches VMs of `spec` with ids id_base, id_base + 1, ... until the
// cluster's Overcommitment() reaches `target`, `limit` launches were
// attempted, or a launch is rejected.
struct AdmitOutcome {
  int64_t admitted = 0;
  bool rejected = false;
};
AdmitOutcome AdmitUntilOvercommit(ClusterManager& manager, const VmSpec& spec,
                                  VmId id_base, double target, int64_t limit);

// CPU deflation (1 - effective/nominal) of every hosted low-priority VM,
// folded in canonical (server, hosting) order: the p99 and mean of one
// deterministic distribution.
struct DeflationStats {
  double p99 = 0.0;
  double mean = 0.0;
  int64_t low_vms = 0;
};
DeflationStats CollectDeflation(ClusterManager& manager);

class WhatIfService {
 public:
  // Takes ownership of the snapshot blob, decodes it once (SimSession::
  // Decode: footer, every section, every bytes-only check) and proves the
  // image with one probe build; a corrupt, inconsistent or version-skewed
  // blob fails here, not per query. Like Restore, it takes every snapshot
  // of a run Open accepted, whatever its cadences (CheckRunCadences).
  static Result<WhatIfService> Load(std::string blob);

  // Executes one query on a private child session and renders the answer as
  // a single JSON line (fixed key order, deterministic number rendering).
  // Fails on restore errors and on a run CheckRunCadences refuses;
  // query-level outcomes (e.g. every placement rejected) are data in the
  // answer, not errors.
  Result<std::string> Answer(const WhatIfQuery& query) const;

  // Ok when a child with `config`'s sample, reinflation and (when
  // interactive) SLO cadences fires each at most kMaxCadenceTicks times
  // over the `hours` it steps from the snapshot's instant, clamped to the
  // horizon; otherwise an error naming the field. Answer checks each query
  // with its slo override applied, the sweep its `hours` on a probe child
  // before any cell runs.
  Result<bool> CheckRunCadences(const ClusterSimConfig& config, double hours) const;

  // Answers every query, fanning over `workers` threads (<= 1 = serial on
  // the caller), and joins the lines in input order with a trailing
  // `# batch` footer carrying the query count and an FNV-1a-64 digest of
  // the lines. Output is byte-identical for every worker count. A query
  // whose restore fails yields an {"error": ...} line in its slot.
  std::string AnswerBatch(const std::vector<WhatIfQuery>& queries,
                          int workers) const;

  // Builds a private child session off the shared image.
  // `telemetry` must be fresh; `placement` >= 0 overrides the future
  // placement policy (the sweep orchestrator's policy axis); `slo` (when
  // non-null and active) overrides the interactive-serving SLO config on
  // the child, enabling it if the snapshot ran without one. Queries
  // parallelize across sessions, never inside one.
  Result<SimSession> RestoreChild(
      TelemetryContext* telemetry, int placement = -1,
      const SimSession::RestoreOptions::SloOverride* slo = nullptr) const;

  // FNV-1a-64 of the base blob, continued from the footer Decode verified;
  // the property suite re-hashes after a concurrent batch to prove no
  // query wrote through the shared bytes.
  uint64_t blob_fnv() const { return blob_fnv_; }
  // Virtual clock / horizon of the base snapshot, from the probe restore.
  double base_now_s() const { return base_now_s_; }
  double base_duration_s() const { return base_duration_s_; }
  const std::string& blob() const { return *blob_; }

 private:
  WhatIfService(std::shared_ptr<const std::string> blob,
                std::shared_ptr<const SimSession::Image> image)
      : blob_(std::move(blob)), image_(std::move(image)) {}

  std::shared_ptr<const std::string> blob_;
  // The blob, decoded once; every child builds from it (DESIGN.md §15).
  std::shared_ptr<const SimSession::Image> image_;
  uint64_t blob_fnv_ = 0;
  double base_now_s_ = 0.0;
  double base_duration_s_ = 0.0;
};

}  // namespace defl

#endif  // SRC_SERVICE_WHATIF_H_

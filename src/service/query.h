// What-if query model for the capacity-planning service (DESIGN.md §15).
// A query is one line of text -- a kind token followed by key=value fields:
//
//   place count=200 cpu=2 mem=4096 prio=low hours=1
//   fail fraction=0.25 seed=7
//   overcommit target=1.5 cpu=2 mem=4096 limit=5000
//   run hours=6
//   slo p99=80 policy=slo hours=6
//
// Every query executes against a private copy-on-restore child session of
// the service's immutable base snapshot, so answers never interfere. The
// parser is strict and total: unknown kinds or keys, duplicate keys,
// malformed numbers, out-of-range values, and empty scripts all fail with a
// descriptive (line-numbered, for scripts) error -- never a crash. Numbers
// are read by text_parse.h, so `nan`, `inf`, `1e999` and `+1` are malformed.
#ifndef SRC_SERVICE_QUERY_H_
#define SRC_SERVICE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/hypervisor/vm.h"
#include "src/resources/resource_vector.h"

namespace defl {

enum class QueryKind {
  kPlace,       // attempt `count` launches of `shape`; report placed/rejected
  kFail,        // crash floor(fraction * healthy + 0.5) servers (seeded draw)
  kOvercommit,  // admit `shape` VMs until Overcommitment() >= target
  kRun,         // advance the simulation `hours` sim-hours
  kSlo,         // run `hours` under an SLO/mix override; report violation rate
};

const char* QueryKindName(QueryKind kind);

// Most launches one query may ask for: a `place` query's count= or an
// `overcommit` query's limit=. A launch onto a full server deflates every
// co-tenant, so a query's work grows with the square of its launches.
constexpr int64_t kMaxQueryLaunches = 10000;

struct WhatIfQuery {
  QueryKind kind = QueryKind::kRun;

  // place: VMs to attempt (1 <= count <= kMaxQueryLaunches).
  int64_t count = 0;
  // place/overcommit: VM size (cpu required > 0; mem/disk/net >= 0) and
  // priority (prio=low VMs are fully deflatable, prio=high are firm).
  ResourceVector shape;
  VmPriority priority = VmPriority::kLow;

  // fail: fraction of currently-healthy servers to crash, in [0, 1], and the
  // seed of the private victim-selection RNG (part of the query, so the same
  // query always crashes the same servers).
  double fraction = 0.0;
  uint64_t seed = 1;

  // overcommit: stop once cluster Overcommitment() >= target (> 0), a launch
  // is rejected, or `limit` admissions were attempted
  // (1 <= limit <= kMaxQueryLaunches).
  double target = 0.0;
  int64_t limit = kMaxQueryLaunches;

  // slo: overrides applied to the child session before it runs, each -1 =
  // keep the snapshot's setting. `p99` is the SLO target in milliseconds
  // (> 0); `fraction` re-tags the interactive mix (in [0, 1]; generated
  // traces only -- an explicit trace carries its own tags); `policy` picks
  // the controller (1 = slo-aware, 0 = uniform baseline that only measures);
  // `period` is the controller check period in seconds (> 0). The snapshot
  // need not have interactive serving enabled -- an slo query enables it on
  // its private child.
  double slo_p99_ms = -1.0;
  double mix_fraction = -1.0;
  int slo_policy = -1;
  double slo_period_s = -1.0;

  // All kinds: afterwards advance the simulation this many sim-hours and
  // report preemptions and the deflation distribution. Required (> 0) for
  // `run` and `slo`; optional (>= 0, default 0 = report immediately)
  // elsewhere.
  double hours = 0.0;
};

// Parses one query line. The line must be a single query (no comments).
Result<WhatIfQuery> ParseQuery(const std::string& line);

// Parses a query script: one query per line, blank lines and `#` comments
// skipped. Errors carry the 1-based line number. An effectively empty script
// is an error (a batch of zero queries is always a caller mistake).
Result<std::vector<WhatIfQuery>> ParseQueryScript(const std::string& text);

}  // namespace defl

#endif  // SRC_SERVICE_QUERY_H_

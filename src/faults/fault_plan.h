// FaultPlan: a declarative, replayable schedule of failures to inject into a
// run. The paper's safety argument (Section 3.2) is that every cascade layer
// is best-effort -- "hot unplugging of resources may fail or only succeed in
// partial reclamation" -- and the hypervisor layer guarantees the target
// anyway; the cloud-scale follow-up (Fuerst & Shenoy) extends this to whole-
// server availability events. A FaultPlan names which failures occur where
// and when; the FaultInjector samples them deterministically from one seed,
// so the same plan + seed reproduces the exact same failure schedule.
//
// Plan file format (one directive per line, '#' comments):
//   faultplan/1 seed=<n>
//   rule kind=<kind> [vm=<id>] [server=<id>] [p=<prob>] [magnitude=<m>]
//        [start=<s>] [end=<s>] [at=<s>] [max=<n>]
//
// vm/server default to -1 (= any); `at=` pins start and end to one instant
// (used by the whole-server crash/degrade/recover events); `max` bounds how
// many times the rule may fire (-1 = unlimited). Magnitude semantics are
// kind-specific and documented on FaultKind.
#ifndef SRC_FAULTS_FAULT_PLAN_H_
#define SRC_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace defl {

// The order is part of snapshot format v4, which range-checks a kind byte
// and carries one injection tally per kind; append, never reorder.
enum class FaultKind : uint8_t {
  // --- Agent RPC layer (magnitudes: seconds of delay / fraction kept) ---
  // Sampled by GuardedAgent, which only a LocalController holding both a
  // registered agent and an injector builds; no shipped driver does.
  kAgentUnresponsive,   // the agent never answers; the RPC times out
  kAgentSlow,           // the reply arrives `magnitude` seconds late
  kAgentShortDelivery,  // the agent frees only `magnitude` (0..1) of its reply
  // --- Wire transport: no site samples these. Agents are called in
  // process, so there is no wire; the kinds stay parseable, and keep their
  // place and their faults/injected/<kind> counters, for snapshot v4. ---
  kWireDrop,
  kWireCorrupt,
  // --- Guest OS layer ---
  kUnplugPartial,  // memory unplug delivers only (1 - magnitude * U[0,1]) of
                   // what was computed as available (Section 3.2.2)
  // --- Hypervisor layer ---
  kHvLatencySpike,  // hypervisor-stage reclamation latency x `magnitude`
  // --- Whole-server availability events (scheduled; `at=` is the time) ---
  kServerDegrade,  // healthy -> degraded: excluded from new placements
  kServerCrash,    // -> down: hosted VMs are lost (re-placed or preempted)
  kServerRecover,  // down/degraded -> recovering -> healthy
};

inline constexpr int kNumFaultKinds = 10;

const char* FaultKindName(FaultKind kind);
Result<FaultKind> FaultKindFromName(const std::string& name);
// True for the whole-server events that are scheduled at a point in time
// rather than sampled at an injection site.
bool IsServerEventKind(FaultKind kind);

struct FaultRule {
  FaultKind kind = FaultKind::kUnplugPartial;
  int64_t vm = -1;      // -1 = any VM
  int64_t server = -1;  // -1 = any server
  double probability = 1.0;
  double magnitude = 1.0;  // kind-specific, see FaultKind
  double start_s = 0.0;    // active window in sim time, inclusive
  double end_s = kNoEnd;
  int64_t max_count = -1;  // total fires allowed; -1 = unlimited

  static constexpr double kNoEnd = 1e300;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
};

// Parses the plan text format above. Strict: unknown kinds, unknown keys,
// malformed numbers, probabilities outside [0,1], and negative magnitudes
// are errors, as is a missing/incorrect header line.
Result<FaultPlan> ParseFaultPlan(const std::string& text);

// Canonical encoding; ParseFaultPlan(EncodeFaultPlan(p)) round-trips.
std::string EncodeFaultPlan(const FaultPlan& plan);

Result<FaultPlan> LoadFaultPlanFile(const std::string& path);

}  // namespace defl

#endif  // SRC_FAULTS_FAULT_PLAN_H_

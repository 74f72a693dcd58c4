// GuardedAgent: the degradation shim between the local controller and a
// possibly-failing in-VM deflation agent. The paper treats the application
// layer as strictly best-effort -- whatever the agent does not deliver falls
// through to the OS and hypervisor layers -- but a real agent can also be
// slow, unresponsive, or short-delivering. The guard adds the missing RPC
// semantics:
//
//   * a per-request deadline: an attempt whose (injected) delay exceeds it
//     counts as a timeout;
//   * bounded exponential-backoff retries within one request;
//   * a per-VM circuit breaker: after `breaker_threshold` consecutive
//     timed-out attempts the agent is marked dead and every later request
//     falls straight through to the OS/hypervisor layers (returning zero)
//     until a footprint probe succeeds, which closes the breaker.
//
// Timeouts originate from the FaultInjector (kAgentUnresponsive / kAgentSlow
// rules); with no injector attached the guard is a pass-through. All
// synthetic waiting (timeouts + backoff + slow replies) accumulates and is
// folded into the deflation outcome's latency by the local controller.
#ifndef SRC_CORE_AGENT_GUARD_H_
#define SRC_CORE_AGENT_GUARD_H_

#include "src/core/deflation_agent.h"
#include "src/faults/fault_injector.h"
#include "src/hypervisor/vm.h"
#include "src/telemetry/telemetry.h"

namespace defl {

struct AgentGuardConfig {
  // Per-attempt deadline for agent RPCs (s).
  double rpc_timeout_s = 5.0;
  // Attempts per request (1 = no retries).
  int max_attempts = 3;
  // Exponential backoff between attempts: base * 2^(attempt-1), capped.
  double backoff_base_s = 0.5;
  double backoff_cap_s = 8.0;
  // Consecutive timed-out attempts before the breaker opens.
  int breaker_threshold = 3;
};

class GuardedAgent : public DeflationAgent {
 public:
  GuardedAgent(VmId vm_id, DeflationAgent* inner, FaultInjector* faults,
               const AgentGuardConfig& config);

  void AttachTelemetry(TelemetryContext* telemetry);

  // DeflationAgent: SelfDeflate runs the retry/breaker state machine and
  // returns zero when the agent is (still) unreachable, so the cascade's
  // lower layers absorb the whole target. OnReinflate is fire-and-forget
  // (a lost notice is harmless). MemoryFootprintMb returns the last footprint
  // a successful call observed when the agent is unreachable -- reporting 0
  // for a dead agent would let unplug take memory the app still uses.
  ResourceVector SelfDeflate(const ResourceVector& target) override;
  void OnReinflate(const ResourceVector& added) override;
  double MemoryFootprintMb() const override;

  bool breaker_open() const { return breaker_open_; }
  int64_t timeouts() const { return timeouts_; }
  int64_t retries() const { return retries_; }
  int64_t breaker_trips() const { return breaker_trips_; }

  // Synthetic seconds spent waiting (timeouts, backoff, slow replies) since
  // the last call; the controller adds this to the cascade latency.
  double TakeInjectedDelay();

  DeflationAgent* inner() const { return inner_; }

 private:
  // One Bernoulli attempt against the injector; true = this attempt timed
  // out. Accumulates the attempt's synthetic delay.
  bool AttemptTimesOut();
  void NoteTimeout();  // consecutive-timeout counting + breaker trip
  // Footprint re-probe of an open breaker; closes it on success.
  bool ProbeAndMaybeClose();

  VmId vm_id_;
  DeflationAgent* inner_;
  FaultInjector* faults_;
  AgentGuardConfig config_;

  bool breaker_open_ = false;
  int consecutive_timeouts_ = 0;
  mutable double last_footprint_mb_ = 0.0;
  mutable double pending_delay_s_ = 0.0;
  int64_t timeouts_ = 0;
  int64_t retries_ = 0;
  int64_t breaker_trips_ = 0;

  TelemetryContext* telemetry_ = nullptr;
  struct {
    CounterHandle timeouts;
    CounterHandle retries;
    CounterHandle breaker_trips;
    CounterHandle breaker_resets;
    CounterHandle fall_throughs;
  } metrics_;
};

}  // namespace defl

#endif  // SRC_CORE_AGENT_GUARD_H_

// Per-server local deflation controller (Section 5, Figure 2). Tracks
// resource allocation and availability on one server, implements the
// proportional cascade deflation policy across its low-priority VMs, preempts
// VMs only when deflation to their minimum sizes cannot satisfy demand, and
// runs the reverse cascade (proportional reinflation) when resources free up.
#ifndef SRC_CORE_LOCAL_CONTROLLER_H_
#define SRC_CORE_LOCAL_CONTROLLER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/agent_guard.h"
#include "src/core/cascade.h"
#include "src/core/deflation_agent.h"
#include "src/hypervisor/server.h"
#include "src/resources/resource_vector.h"

namespace defl {

// How a server-level shortfall is split across its deflatable VMs.
enum class DeflationSplit {
  // x_i proportional to each VM's deflatable headroom (the paper's policy).
  kProportional,
  // Equal absolute amounts from every deflatable VM (ablation baseline):
  // hits small VMs much harder and creates stragglers.
  kEqual,
};

const char* DeflationSplitName(DeflationSplit split);

struct LocalControllerConfig {
  DeflationMode mode = DeflationMode::kCascade;
  LatencyParams latency;
  // Safety margin in the proportional target x_i = (1 - alpha) * share_i:
  // holding back a fraction of each VM's deflatable headroom (Section 5).
  double alpha = 0.0;
  DeflationSplit split = DeflationSplit::kProportional;
  // Per-operation deadline for the synchronous cascade stages (Section 5);
  // <= 0 disables. Clipped work falls through to the hypervisor.
  double deflation_deadline_s = 0.0;
  // Agent RPC deadline/retry/circuit-breaker settings; effective only while
  // a fault injector is attached (without one, no RPC can fail).
  AgentGuardConfig guard;
};

// One server's planned reverse cascade: how much to give back to each of its
// deflated VMs. Computed read-only by PlanReinflate from the controller's own
// server and consumed by ApplyReinflate. A plan is valid only while the
// server's VM set and allocations are unchanged between the two calls.
struct ReinflatePlan {
  struct Entry {
    Vm* vm = nullptr;
    ResourceVector give;
  };
  std::vector<Entry> entries;
  bool empty() const { return entries.empty(); }
};

struct ReclaimResult {
  bool success = false;
  // Resources freed (unplug + overcommit + preempted allocations).
  ResourceVector freed;
  // Wall-clock latency: per-VM deflations run concurrently, so the slowest
  // VM determines it (Section 6.3: "deflation is concurrent across VMs").
  double latency_seconds = 0.0;
  std::vector<VmId> deflated;
  std::vector<VmId> preempted;
};

class LocalController {
 public:
  LocalController(Server* server, const LocalControllerConfig& config = {});

  // Registers/unregisters the application deflation agent for a hosted VM.
  // With a fault injector attached, the agent is wrapped in a GuardedAgent
  // (deadline + retries + circuit breaker); FindAgent returns the wrapper.
  void RegisterAgent(VmId id, DeflationAgent* agent);
  void UnregisterAgent(VmId id);
  DeflationAgent* FindAgent(VmId id) const;
  // The guard for a VM's agent, or nullptr (no injector / no agent).
  GuardedAgent* FindGuard(VmId id) const;

  // Ensures at least `demand` is free on the server, deflating low-priority
  // VMs proportionally to their deflatable headroom and preempting (farthest-
  // from-target first) only if deflation cannot cover the shortfall.
  // Preempted VMs are removed from the server; their ids are reported.
  ReclaimResult MakeRoom(const ResourceVector& demand);

  // Deflates one VM by an explicit target (used by the cluster manager and
  // the single-VM benches).
  DeflationOutcome DeflateVm(VmId id, const ResourceVector& target);

  // Proportionally reinflates deflated VMs from the server's current free
  // pool, reserving `hold_back` (e.g. for a VM about to arrive).
  // Returns the total amount returned to VMs. Equivalent to
  // ApplyReinflate(PlanReinflate(hold_back)).
  ResourceVector ReinflateAll(const ResourceVector& hold_back = ResourceVector::Zero());

  // Read-only half of ReinflateAll: proportional-to-deflation split of the
  // current free pool (minus `hold_back`) across this server's VMs. Mutates
  // nothing except the server's lazily refreshed accounting cache.
  ReinflatePlan PlanReinflate(const ResourceVector& hold_back = ResourceVector::Zero()) const;
  // Mutating half: runs the reverse cascade for each planned entry, in plan
  // order, publishing telemetry as usual. Returns the total returned.
  ResourceVector ApplyReinflate(const ReinflatePlan& plan);

  Server* server() { return server_; }
  const LocalControllerConfig& config() const { return config_; }
  CascadeController& cascade() { return cascade_; }

  // Publishes MakeRoom/preemption metrics and events through `telemetry`
  // (nullptr detaches) and forwards the context to the cascade controller.
  void AttachTelemetry(TelemetryContext* telemetry);
  TelemetryContext* telemetry() const { return telemetry_; }

  // Enables failure injection: forwards the injector to the cascade
  // (latency spikes) and wraps registered agents in GuardedAgents so the
  // RPC path gains deadlines, retries, and the per-VM circuit breaker.
  void AttachFaultInjector(FaultInjector* faults);
  FaultInjector* fault_injector() const { return faults_; }

 private:
  // Total amount a VM has been deflated by (unplug + overcommit).
  static ResourceVector DeflatedBy(const Vm& vm);
  CascadeOptions Options() const;
  // Cascade deflation of one VM plus the guard's synthetic RPC latency.
  DeflationOutcome GuardedDeflate(Vm& vm, const ResourceVector& target);
  void WrapAgent(VmId id, DeflationAgent* agent);

  Server* server_;
  LocalControllerConfig config_;
  CascadeController cascade_;
  FaultInjector* faults_ = nullptr;
  std::map<VmId, DeflationAgent*> agents_;
  std::map<VmId, std::unique_ptr<GuardedAgent>> guards_;

  TelemetryContext* telemetry_ = nullptr;
  struct {
    CounterHandle make_room_calls;
    CounterHandle make_room_failures;
    CounterHandle preemptions;
    DistributionHandle make_room_latency_s;
  } metrics_;
};

}  // namespace defl

#endif  // SRC_CORE_LOCAL_CONTROLLER_H_

// Centralized deflation-based cluster manager (Section 5): places VMs with
// deflation-aware bin packing, reclaims resources through the per-server
// local controllers (proportional cascade deflation), preempts only when
// deflation to minimum sizes cannot satisfy demand, and reinflates
// proportionally when resources free up. A preemption-only mode implements
// the baseline used in Figure 8c.
//
// Servers additionally carry a health state machine driven by fault
// injection (DESIGN.md §8): healthy -> degraded -> down -> recovering ->
// healthy. Unhealthy servers are excluded from placement; crashing a server
// evacuates its VMs (re-placed elsewhere if possible, otherwise revoked as
// crash preemptions), and recovery reinflates the survivors.
#ifndef SRC_CLUSTER_CLUSTER_MANAGER_H_
#define SRC_CLUSTER_CLUSTER_MANAGER_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/fleet_view.h"
#include "src/cluster/placement.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/local_controller.h"
#include "src/faults/fault_injector.h"
#include "src/hypervisor/server.h"

namespace defl {

// Per-server health as seen by the cluster manager. Only kHealthy servers
// receive new placements; kDegraded keeps its VMs but takes no more;
// kDown has lost everything; kRecovering is back up but on probation until
// the manager promotes it (MarkHealthy).
enum class ServerHealth { kHealthy, kDegraded, kDown, kRecovering };

const char* ServerHealthName(ServerHealth health);

enum class ReclamationStrategy {
  kDeflation,       // proportional cascade deflation, preempt below minimums
  kPreemptionOnly,  // the conventional transient-VM baseline
};

struct ClusterConfig {
  PlacementPolicy placement = PlacementPolicy::kBestFit;
  ReclamationStrategy strategy = ReclamationStrategy::kDeflation;
  LocalControllerConfig controller;
  uint64_t seed = 1;
  // Unused: a run executes on its caller's thread (DESIGN.md §10). Kept only
  // because existing callers assign it and snapshots carry its slot; any
  // value gives the same run.
  int threads = 1;
};

// Snapshot view of the registry-backed lifecycle counters. Kept as a struct
// for API compatibility with the pre-telemetry counters; the live values
// reside in the MetricsRegistry under cluster/vms/*.
struct ClusterCounters {
  int64_t launched = 0;
  int64_t launched_low_priority = 0;
  int64_t rejected = 0;
  int64_t preempted = 0;       // low-priority VMs revoked by policy
  int64_t completed = 0;
  int64_t deflation_ops = 0;   // MakeRoom calls that deflated something
  // Crash fallout, kept separate from the policy counters above so the
  // paper's preemption probability is not polluted by injected failures.
  int64_t crash_replaced = 0;  // VMs re-placed after their server crashed
  int64_t crash_preempted = 0; // low-priority VMs revoked because no server had room
  int64_t crash_lost = 0;      // high-priority VMs that could not be re-placed
  int64_t server_crashes = 0;
  int64_t server_recoveries = 0;
};

class ClusterManager {
 public:
  // `telemetry` may be nullptr: the manager then owns a private context so
  // the counters() view always accumulates. Servers and local controllers
  // publish through the same context.
  ClusterManager(int num_servers, const ResourceVector& server_capacity,
                 const ClusterConfig& config, TelemetryContext* telemetry = nullptr);

  // Places and starts the VM, deflating or preempting per the configured
  // strategy. On failure the VM is rejected (returned error) and counted.
  Result<ServerId> LaunchVm(std::unique_ptr<Vm> vm);

  // Normal completion: the VM leaves and its server reinflates.
  // O(hosted VMs on one server) via the VM index.
  void CompleteVm(VmId id);

  // O(1) lookups backed by the VmId -> server index map, which is kept
  // coherent by every placement/removal path in this class.
  Vm* FindVm(VmId id);
  Server* ServerOf(VmId id);
  std::vector<Server*> servers();
  LocalController* controller(ServerId id);

  ClusterCounters counters() const;
  TelemetryContext* telemetry() const { return telemetry_; }
  // Low-priority VMs revoked since the last call (for lifecycle bookkeeping).
  std::vector<VmId> TakePreempted();

  // The structure-of-arrays mirror every placement probe scans (DESIGN.md
  // §12). Kept coherent with the object graph through the servers'
  // ServerObserver notifications; exposed for property tests and benches.
  FleetView& fleet() { return fleet_; }

  // --- Per-server sweeps of the sampling and reinflation ticks ---

  // One sampling-tick usage snapshot of a server, folded into the telemetry
  // registry by the simulation loop in server order.
  struct ServerUsageSample {
    double nominal_overcommitment = 0.0;
    struct VmUsage {
      bool low_priority = false;
      double nominal_cpu = 0.0;    // vm->size().cpu()
      double effective_cpu = 0.0;  // vm->effective().cpu()
    };
    std::vector<VmUsage> vms;
  };
  // Fills out[i] for server i (resized to the server count), per-VM entries
  // in hosting order. Reuses the caller's buffers, so a caller passing the
  // same vector every tick allocates nothing in steady state.
  void CollectUsageSamples(std::vector<ServerUsageSample>* out);

  // Sum of effective CPU over hosted high-priority VMs, added in (server,
  // hosting) order.
  double HighPriorityEffectiveCpu();

  // Proactive reverse cascade over every server (the reinflation loop):
  // ReinflateAll on each server in server order. `holdback_cpu_per_server`
  // reserves capacity-shaped headroom for forecast demand.
  void ReinflateSweep(double holdback_cpu_per_server);

  // --- Failure injection and server health (DESIGN.md §8) ---

  // Forwards the injector to every local controller (agent guards, cascade
  // latency spikes) and to the guest OS of every hosted and future VM
  // (partial-unplug faults). nullptr detaches.
  void AttachFaultInjector(FaultInjector* faults);
  FaultInjector* fault_injector() const { return faults_; }

  ServerHealth health(ServerId id) const;
  // Whole-server failure: marks the server kDown and evacuates it. Each lost
  // VM is reset to its nominal allocation (crash wipes deflation state) and
  // re-placed on a healthy server if any fits (counted crash_replaced);
  // otherwise low-priority VMs are revoked (crash_preempted, trace outcome 4)
  // and high-priority VMs are lost (crash_lost). No-op if already down.
  void CrashServer(ServerId id);
  // kHealthy -> kDegraded: keeps its VMs but receives no new placements.
  void DegradeServer(ServerId id);
  // kDown -> kRecovering: capacity returns (still excluded from placement)
  // and the relieved pressure proportionally reinflates survivors on the
  // healthy servers.
  void RecoverServer(ServerId id);
  // Promotes kRecovering/kDegraded back to kHealthy after the caller's
  // probation grace period.
  void MarkHealthy(ServerId id);

  // --- Deterministic checkpoint/restore (SimSession snapshots) ---

  // Re-hosts a snapshot-restored VM on `server` exactly as the snapshotting
  // run left it: no placement probe, no reclamation, no RNG or fault-
  // injector draws. The server's add-path telemetry still fires; the session
  // overwrites the whole registry right afterwards, so nothing the adoption
  // emits survives into restored output. Ignores server health (a degraded
  // server keeps its VMs across a snapshot).
  void AdoptVm(std::unique_ptr<Vm> vm, ServerId server);
  const std::vector<ServerHealth>& health_states() const { return health_; }
  // Reinstates the snapshotted health vector; false if the size differs.
  bool RestoreHealthStates(const std::vector<ServerHealth>& health);
  std::array<uint64_t, 4> SaveRngState() const { return rng_.SaveState(); }
  void RestoreRngState(const std::array<uint64_t, 4>& state) {
    rng_.RestoreState(state);
  }
  // Low-priority revocations not yet drained by TakePreempted.
  const std::vector<VmId>& pending_preempted() const {
    return preempted_since_take_;
  }
  void RestorePreempted(std::vector<VmId> ids) {
    preempted_since_take_ = std::move(ids);
  }

  // --- Cluster-level metrics ---
  // Dominant-dimension utilization of backed resources, in [0, 1].
  double Utilization() const;
  // Sum of nominal VM sizes over total capacity (>1 = overcommitted).
  double Overcommitment() const;
  // Per-server nominal overcommitment values (Figure 8d).
  std::vector<double> PerServerOvercommitment() const;

 private:
  // Outcome of one placement attempt (shared by LaunchVm and crash
  // re-placement; the caller does its own rejection accounting).
  struct PlaceOutcome {
    bool ok = false;
    ServerId server = -1;
    // 1 = fit into free capacity, 2 = deflation made room, 3 = preemption
    // made room (trace outcome convention of kPlacement/kRejection).
    int32_t trace_outcome = 1;
    ResourceVector freed;  // what reclamation managed to free on failure
    std::string error;
  };

  // Places `vm` on a healthy server, reclaiming per the configured strategy.
  // Consumes `vm` on success and leaves it intact on failure.
  PlaceOutcome TryPlace(std::unique_ptr<Vm>& vm);
  // Rebuilds the healthy-row candidate list placement probes scan (rows are
  // server indices, ascending). Rebuilt lazily after a health transition;
  // placement probes hit the cache.
  void RefreshPlaceable() const;
  int ServerIndex(ServerId id) const;
  void UpdateHealthGauge();
  // Crash wipes deflation state: the re-placed VM restarts at nominal size.
  static void ResetVmDeflation(Vm& vm);

  // Preemption-only reclamation: revoke low-priority VMs on the server at
  // `server_index` until `demand` fits; returns false if impossible. Each
  // victim is fully deregistered (agent map, VM index) like any other
  // removal path.
  bool PreemptForDemand(size_t server_index, const ResourceVector& demand);
  // Removes the VM from the index and its controller's agent map (every
  // removal path must go through this or replicate it).
  void ForgetVm(VmId id, size_t server_index);

  ClusterConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Server>> servers_;
  // Declared after servers_ so it is destroyed first: its destructor
  // detaches itself as each (still-alive) server's observer.
  FleetView fleet_;
  std::vector<std::unique_ptr<LocalController>> controllers_;
  std::vector<ServerHealth> health_;
  // Cache of the healthy-row candidate list consumed by every placement
  // probe (ascending server indices, which double as FleetView rows);
  // invalidated only by health transitions (rare next to probes).
  mutable std::vector<uint32_t> placeable_rows_;
  mutable bool placeable_dirty_ = true;
  std::vector<VmId> preempted_since_take_;
  // VmId -> index into servers_/controllers_ for every hosted VM.
  std::unordered_map<VmId, size_t> vm_index_;
  FaultInjector* faults_ = nullptr;

  TelemetryContext* telemetry_ = nullptr;
  std::unique_ptr<TelemetryContext> owned_telemetry_;
  struct {
    CounterHandle launched;
    CounterHandle launched_low_priority;
    CounterHandle rejected;
    CounterHandle preempted;
    CounterHandle completed;
    CounterHandle deflation_ops;
    CounterHandle crash_replaced;
    CounterHandle crash_preempted;
    CounterHandle crash_lost;
    CounterHandle server_crashes;
    CounterHandle server_recoveries;
    CounterHandle server_degrades;
    GaugeHandle healthy_servers;
  } metrics_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_CLUSTER_MANAGER_H_

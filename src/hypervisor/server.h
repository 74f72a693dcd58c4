// Physical server model: capacity, hosted VMs, and the free / deflatable
// accounting the cluster manager's placement policies consume (Section 5:
// availability = free + deflatable).
#ifndef SRC_HYPERVISOR_SERVER_H_
#define SRC_HYPERVISOR_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hypervisor/vm.h"
#include "src/resources/resource_vector.h"
#include "src/telemetry/telemetry.h"

namespace defl {

using ServerId = int64_t;

// Aggregate resource view of one server, folded over its hosted VMs in
// hosting order. Cached by Server and refreshed lazily: any VM mutation
// (add/remove/deflate/reinflate/hv-reclaim) invalidates the cache through
// the AllocationListener hooks, and the next accessor recomputes the fold.
// Because the refresh replays exactly the from-scratch fold, cached values
// are always bit-identical to a recomputation -- the cache can be stale
// only if a mutation path misses its notification hook, which the
// DEFL_CHECK_ACCOUNTING build cross-validates on every read.
//
// Thread-safety: none. Even const accessors may refresh the mutable cache,
// so a server belongs to one thread at a time, reads included -- the thread
// running its simulation (DESIGN.md §10).
struct ServerAccounting {
  // Sum of effective (physically backed) allocations.
  ResourceVector allocated;
  // Sum of what deflation may still reclaim (zero for high-priority VMs).
  ResourceVector deflatable;
  // Sum of effective allocations of low-priority (preemptible) VMs.
  ResourceVector preemptible;
  // Sum of nominal VM sizes (the overcommitment numerator).
  ResourceVector nominal;

  bool operator==(const ServerAccounting& o) const = default;
};

// Observer of one server's allocation-affecting mutations, keyed by server
// id. This is the hook the cluster layer's structure-of-arrays FleetView
// (src/cluster/fleet_view.h) uses to mark its mirrored row stale: every
// notification that dirties the server's own accounting cache is forwarded
// here too, so the flat mirror can never miss an invalidation the cache saw.
// Notifications fire only on mutations; lazy cache refreshes do not notify.
class ServerObserver {
 public:
  virtual ~ServerObserver() = default;
  virtual void OnServerAllocationChanged(ServerId id) = 0;
};

class Server : public AllocationListener {
 public:
  Server(ServerId id, ResourceVector capacity);

  ServerId id() const { return id_; }
  const ResourceVector& capacity() const { return capacity_; }

  // --- VM hosting ---

  // Takes ownership. The VM's effective allocation must fit in Free() at
  // admission time (the caller deflates first if needed); this is checked.
  Vm* AddVm(std::unique_ptr<Vm> vm);
  // Removes the VM and returns ownership (completion, migration, preemption).
  std::unique_ptr<Vm> RemoveVm(VmId id);
  Vm* FindVm(VmId id);
  const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }
  size_t vm_count() const { return vms_.size(); }

  // --- Accounting (O(1) on a clean cache; see ServerAccounting) ---

  // Sum of effective (physically backed) allocations of hosted VMs.
  ResourceVector Allocated() const;
  // capacity - Allocated(), clamped non-negative.
  ResourceVector Free() const;
  // Total resources still reclaimable from hosted low-priority VMs.
  ResourceVector Deflatable() const;
  // Free + Deflatable: the availability vector used by placement fitness.
  ResourceVector Availability() const;
  // Everything low-priority VMs physically hold: what a high-priority
  // arrival could claim by displacing them outright.
  ResourceVector Preemptible() const;
  // Sum of nominal VM sizes (the cached overcommitment numerator).
  ResourceVector NominalDemand() const;

  // From-scratch fold over the hosted VMs (the reference the cache must
  // match). Exposed for the accounting invariant checks and property tests.
  ServerAccounting RecomputeAccounting() const;
  // True when the cached aggregates (if any are cached) are exactly equal
  // to RecomputeAccounting(). A mutation path that misses its notification
  // hook shows up here as a stale-but-clean cache.
  bool AccountingConsistent() const;

  // Invalidates the cached aggregates (AllocationListener; invoked by
  // hosted VMs on every allocation-changing mutation) and forwards the
  // invalidation to the attached observer, if any. AddVm/RemoveVm route
  // through here too, so the observer sees every path that dirties the
  // cache.
  void OnAllocationChanged() override {
    accounting_dirty_ = true;
    if (observer_ != nullptr) {
      observer_->OnServerAllocationChanged(id_);
    }
  }

  // Attaches the single allocation-change observer (nullptr detaches). Used
  // by FleetView to mirror this server into its flat arrays.
  void set_observer(ServerObserver* observer) { observer_ = observer; }

  // Sum of *nominal* VM sizes over capacity (per the dominant dimension):
  // the server overcommitment metric reported in Figure 8d. 1.0 = exactly
  // full at nominal sizes; > 1.0 = overcommitted.
  double NominalOvercommitment() const;

  // Fraction of capacity backed to VMs (dominant dimension), in [0, 1].
  double Utilization() const;

  // True if a VM of `demand` could run here after deflating low-priority
  // VMs as far as allowed.
  bool CanFitWithDeflation(const ResourceVector& demand) const;

  // Publishes VM-lifecycle events and overcommit transitions (nominal
  // overcommitment crossing 1.0) through `telemetry` (nullptr detaches).
  void AttachTelemetry(TelemetryContext* telemetry);
  TelemetryContext* telemetry() const { return telemetry_; }

 private:
  // Emits kOvercommitEnter/kOvercommitExit when AddVm/RemoveVm moved the
  // nominal overcommitment across 1.0.
  void RecordOvercommitTransition(double before, int64_t vm);
  // Returns the cached aggregates, refreshing them first when dirty.
  const ServerAccounting& accounting() const;

  ServerId id_;
  ResourceVector capacity_;
  std::vector<std::unique_ptr<Vm>> vms_;
  mutable ServerAccounting accounting_;
  mutable bool accounting_dirty_ = true;
  ServerObserver* observer_ = nullptr;

  TelemetryContext* telemetry_ = nullptr;
  struct {
    CounterHandle vms_added;
    CounterHandle vms_removed;
    CounterHandle overcommit_entries;
  } metrics_;
};

}  // namespace defl

#endif  // SRC_HYPERVISOR_SERVER_H_

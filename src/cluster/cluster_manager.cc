#include "src/cluster/cluster_manager.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace defl {

ClusterManager::ClusterManager(int num_servers, const ResourceVector& server_capacity,
                               const ClusterConfig& config, TelemetryContext* telemetry)
    : config_(config), rng_(config.seed) {
  assert(num_servers > 0);
  if (telemetry != nullptr) {
    telemetry_ = telemetry;
  } else {
    // Private fallback so the counters() view is always live. Nothing will
    // export the private trace, so don't let it accumulate.
    owned_telemetry_ = std::make_unique<TelemetryContext>();
    owned_telemetry_->trace().set_enabled(false);
    telemetry_ = owned_telemetry_.get();
  }
  MetricsRegistry& registry = telemetry_->metrics();
  metrics_.launched = registry.Counter("cluster/vms/launched");
  metrics_.launched_low_priority = registry.Counter("cluster/vms/launched_low_priority");
  metrics_.rejected = registry.Counter("cluster/vms/rejected");
  metrics_.preempted = registry.Counter("cluster/vms/preempted");
  metrics_.completed = registry.Counter("cluster/vms/completed");
  metrics_.deflation_ops = registry.Counter("cluster/deflation_ops");
  metrics_.crash_replaced = registry.Counter("cluster/vms/crash_replaced");
  metrics_.crash_preempted = registry.Counter("cluster/vms/crash_preempted");
  metrics_.crash_lost = registry.Counter("cluster/vms/crash_lost");
  metrics_.server_crashes = registry.Counter("cluster/servers/crashes");
  metrics_.server_recoveries = registry.Counter("cluster/servers/recoveries");
  metrics_.server_degrades = registry.Counter("cluster/servers/degrades");
  metrics_.healthy_servers = registry.Gauge("cluster/servers/healthy");
  health_.assign(static_cast<size_t>(num_servers), ServerHealth::kHealthy);
  registry.Set(metrics_.healthy_servers, static_cast<double>(num_servers));
  for (int i = 0; i < num_servers; ++i) {
    servers_.push_back(std::make_unique<Server>(i, server_capacity));
    servers_.back()->AttachTelemetry(telemetry_);
    controllers_.push_back(
        std::make_unique<LocalController>(servers_.back().get(), config.controller));
    controllers_.back()->AttachTelemetry(telemetry_);
  }
  // From here on, every allocation-affecting mutation marks its row in the
  // flat mirror; placement probes scan the mirror, never the objects.
  fleet_.Bind(servers_);
}

ClusterCounters ClusterManager::counters() const {
  const MetricsRegistry& registry = telemetry_->metrics();
  ClusterCounters out;
  out.launched = registry.counter(metrics_.launched);
  out.launched_low_priority = registry.counter(metrics_.launched_low_priority);
  out.rejected = registry.counter(metrics_.rejected);
  out.preempted = registry.counter(metrics_.preempted);
  out.completed = registry.counter(metrics_.completed);
  out.deflation_ops = registry.counter(metrics_.deflation_ops);
  out.crash_replaced = registry.counter(metrics_.crash_replaced);
  out.crash_preempted = registry.counter(metrics_.crash_preempted);
  out.crash_lost = registry.counter(metrics_.crash_lost);
  out.server_crashes = registry.counter(metrics_.server_crashes);
  out.server_recoveries = registry.counter(metrics_.server_recoveries);
  return out;
}

std::vector<Server*> ClusterManager::servers() {
  std::vector<Server*> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) {
    out.push_back(s.get());
  }
  return out;
}

LocalController* ClusterManager::controller(ServerId id) {
  const int index = ServerIndex(id);
  return index >= 0 ? controllers_[static_cast<size_t>(index)].get() : nullptr;
}

void ClusterManager::ForgetVm(VmId id, size_t server_index) {
  vm_index_.erase(id);
  controllers_[server_index]->UnregisterAgent(id);
}

ClusterManager::PlaceOutcome ClusterManager::TryPlace(std::unique_ptr<Vm>& vm) {
  PlaceOutcome out;
  const VmId vm_id = vm->id();
  const ResourceVector demand = vm->size();
  const bool low_priority = vm->deflatable();

  // Reclamation happens only under resource pressure (Section 5): prefer a
  // server with enough untouched free capacity, and fall back to reclaimable
  // availability only when none exists. What is reclaimable depends on the
  // strategy and the arrival's priority: deflation-managed clusters can
  // shrink low-priority VMs for anyone; preemption-only clusters can revoke
  // low-priority VMs for high-priority arrivals but give low-priority
  // arrivals only free space.
  std::array<AvailabilityMode, 3> passes;
  size_t num_passes = 0;
  passes[num_passes++] = AvailabilityMode::kFreeOnly;
  if (config_.strategy == ReclamationStrategy::kDeflation) {
    passes[num_passes++] = AvailabilityMode::kFreePlusDeflatable;
  }
  if (!low_priority) {
    // High priority displaces low priority outright as the last resort.
    passes[num_passes++] = AvailabilityMode::kFreePlusPreemptible;
  }
  RefreshPlaceable();
  Result<size_t> placed = Error{"unplaced"};
  if (placeable_rows_.empty()) {
    placed = Error{"no healthy servers"};
  } else {
    for (size_t p = 0; p < num_passes; ++p) {
      const AvailabilityMode mode = passes[p];
      placed = PlaceVmFleet(demand, fleet_, placeable_rows_, config_.placement, rng_,
                            mode);
      if (placed.ok()) {
        break;
      }
    }
  }
  if (!placed.ok()) {
    out.error = placed.error();
    return out;
  }
  const size_t index = placeable_rows_[placed.value()];
  Server& server = *servers_[index];
  out.server = server.id();

  MetricsRegistry& registry = telemetry_->metrics();
  if (!demand.AllLeq(server.Free())) {
    if (config_.strategy == ReclamationStrategy::kDeflation) {
      out.trace_outcome = 2;
      const ReclaimResult reclaim = controllers_[index]->MakeRoom(demand);
      for (const VmId victim : reclaim.preempted) {
        // MakeRoom already deregistered the victim's agent; drop it from the
        // VM index too so lookups cannot resolve a revoked VM.
        vm_index_.erase(victim);
        registry.Add(metrics_.preempted);
        preempted_since_take_.push_back(victim);
      }
      if (!reclaim.deflated.empty()) {
        registry.Add(metrics_.deflation_ops);
      }
      if (!reclaim.success) {
        // The failed attempt must not leave collateral damage: MakeRoom
        // deflated (and possibly preempted) VMs for an arrival that never
        // materialized, so give the survivors their resources back.
        controllers_[index]->ReinflateAll();
        out.freed = reclaim.freed;
        out.error = "reclamation failed on chosen server";
        return out;
      }
    } else {
      out.trace_outcome = 3;
      if (!PreemptForDemand(index, demand)) {
        out.error = "preemption could not free enough resources";
        return out;
      }
    }
  }

  telemetry_->trace().Record(TraceEventKind::kPlacement, CascadeLayer::kNone, vm->id(),
                             server.id(), demand, server.Free(), out.trace_outcome);
  if (faults_ != nullptr) {
    vm->guest_os().AttachFaultInjector(faults_, vm->id());
  }
  server.AddVm(std::move(vm));
  vm_index_[vm_id] = index;
  out.ok = true;
  return out;
}

Result<ServerId> ClusterManager::LaunchVm(std::unique_ptr<Vm> vm) {
  assert(vm != nullptr);
  const VmId id = vm->id();
  const ResourceVector demand = vm->size();
  const bool low_priority = vm->deflatable();
  MetricsRegistry& registry = telemetry_->metrics();

  const PlaceOutcome placed = TryPlace(vm);
  if (!placed.ok) {
    registry.Add(metrics_.rejected);
    // Rejection outcome mirrors how far placement got: 0 = no feasible
    // server, 2 = deflation fell short, 3 = preemption fell short.
    const int32_t outcome = placed.server < 0 ? 0 : placed.trace_outcome;
    telemetry_->trace().Record(TraceEventKind::kRejection, CascadeLayer::kNone, id,
                               placed.server, demand, placed.freed, outcome);
    return Error{placed.error};
  }
  registry.Add(metrics_.launched);
  if (low_priority) {
    registry.Add(metrics_.launched_low_priority);
  }
  return placed.server;
}

bool ClusterManager::PreemptForDemand(size_t server_index,
                                      const ResourceVector& demand) {
  Server& server = *servers_[server_index];
  while (!demand.AllLeq(server.Free())) {
    // Revoke the low-priority VM freeing the most of the bottleneck
    // resource (standard eviction heuristic).
    Vm* victim = nullptr;
    double victim_gain = -1.0;
    const ResourceVector need = (demand - server.Free()).ClampNonNegative();
    for (const auto& vm : server.vms()) {
      if (vm->priority() != VmPriority::kLow) {
        continue;
      }
      const double gain = vm->effective().Min(need).SafeDivide(server.capacity()).Sum();
      if (gain > victim_gain) {
        victim_gain = gain;
        victim = vm.get();
      }
    }
    if (victim == nullptr) {
      return false;
    }
    const VmId id = victim->id();
    telemetry_->metrics().Add(metrics_.preempted);
    telemetry_->trace().Record(TraceEventKind::kPreemption, CascadeLayer::kNone, id,
                               server.id(), need, victim->effective(), 0);
    victim->set_state(VmState::kPreempted);
    server.RemoveVm(id);
    ForgetVm(id, server_index);
    preempted_since_take_.push_back(id);
  }
  return true;
}

void ClusterManager::CompleteVm(VmId id) {
  const auto it = vm_index_.find(id);
  if (it == vm_index_.end()) {
    return;
  }
  const size_t i = it->second;
  Server& server = *servers_[i];
  std::unique_ptr<Vm> vm = server.RemoveVm(id);
  assert(vm != nullptr);
  vm->set_state(VmState::kCompleted);
  ForgetVm(id, i);
  telemetry_->metrics().Add(metrics_.completed);
  telemetry_->trace().Record(TraceEventKind::kVmComplete, CascadeLayer::kNone, id,
                             server.id(), vm->size(), vm->effective(), 0);
  // Freed resources flow back to deflated VMs (reverse cascade).
  if (config_.strategy == ReclamationStrategy::kDeflation) {
    controllers_[i]->ReinflateAll();
  }
}

Vm* ClusterManager::FindVm(VmId id) {
  const auto it = vm_index_.find(id);
  return it != vm_index_.end() ? servers_[it->second]->FindVm(id) : nullptr;
}

Server* ClusterManager::ServerOf(VmId id) {
  const auto it = vm_index_.find(id);
  return it != vm_index_.end() ? servers_[it->second].get() : nullptr;
}

std::vector<VmId> ClusterManager::TakePreempted() {
  std::vector<VmId> out;
  out.swap(preempted_since_take_);
  return out;
}

void ClusterManager::AttachFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  for (auto& controller : controllers_) {
    controller->AttachFaultInjector(faults);
  }
  for (auto& server : servers_) {
    for (const auto& vm : server->vms()) {
      vm->guest_os().AttachFaultInjector(faults, vm->id());
    }
  }
}

void ClusterManager::AdoptVm(std::unique_ptr<Vm> vm, ServerId server) {
  assert(vm != nullptr);
  const int index = ServerIndex(server);
  assert(index >= 0);
  const VmId id = vm->id();
  if (faults_ != nullptr) {
    vm->guest_os().AttachFaultInjector(faults_, id);
  }
  servers_[static_cast<size_t>(index)]->AddVm(std::move(vm));
  vm_index_[id] = static_cast<size_t>(index);
}

bool ClusterManager::RestoreHealthStates(const std::vector<ServerHealth>& health) {
  if (health.size() != health_.size()) {
    return false;
  }
  health_ = health;
  UpdateHealthGauge();
  return true;
}

void ClusterManager::RefreshPlaceable() const {
  if (!placeable_dirty_) {
    return;
  }
  placeable_rows_.clear();
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (health_[i] != ServerHealth::kHealthy) {
      continue;
    }
    placeable_rows_.push_back(static_cast<uint32_t>(i));
  }
  placeable_dirty_ = false;
}

int ClusterManager::ServerIndex(ServerId id) const {
  // Server ids are assigned densely (0..n-1) by the constructor, so the id
  // is its own index; guard anyway so stray ids degrade to "not found".
  if (id < 0 || static_cast<size_t>(id) >= servers_.size()) {
    return -1;
  }
  assert(servers_[static_cast<size_t>(id)]->id() == id);
  return static_cast<int>(id);
}

ServerHealth ClusterManager::health(ServerId id) const {
  const int index = ServerIndex(id);
  assert(index >= 0);
  return health_[static_cast<size_t>(index)];
}

void ClusterManager::UpdateHealthGauge() {
  // Every health transition funnels through here, so it doubles as the
  // invalidation point for the cached placement candidate list and the
  // sync point for the mirror's eligibility bits.
  placeable_dirty_ = true;
  double healthy = 0.0;
  for (size_t i = 0; i < health_.size(); ++i) {
    const bool is_healthy = health_[i] == ServerHealth::kHealthy;
    fleet_.SetEligible(i, is_healthy);
    if (is_healthy) {
      healthy += 1.0;
    }
  }
  telemetry_->metrics().Set(metrics_.healthy_servers, healthy);
}

void ClusterManager::ResetVmDeflation(Vm& vm) {
  vm.HvRelease(vm.hv_reclaimed());
  vm.guest_os().Replug(vm.guest_os().unplugged());
}

void ClusterManager::CrashServer(ServerId id) {
  const int index = ServerIndex(id);
  if (index < 0 || health_[index] == ServerHealth::kDown) {
    return;
  }
  health_[index] = ServerHealth::kDown;
  Server& server = *servers_[index];
  MetricsRegistry& registry = telemetry_->metrics();
  registry.Add(metrics_.server_crashes);
  UpdateHealthGauge();
  telemetry_->trace().Record(TraceEventKind::kServerCrash, CascadeLayer::kNone, -1, id,
                             server.Allocated(), ResourceVector::Zero(),
                             static_cast<int32_t>(server.vm_count()));
  DEFL_LOG(kInfo) << "server " << id << ": crashed with " << server.vm_count()
                  << " VMs";

  // Evacuate: the crash wiped every hosted VM; each restarts at nominal
  // size somewhere else if the cluster has room. High priority re-places
  // first so transient capacity cannot crowd it out.
  std::vector<std::unique_ptr<Vm>> lost;
  while (server.vm_count() > 0) {
    const VmId vm_id = server.vms().front()->id();
    ForgetVm(vm_id, static_cast<size_t>(index));
    lost.push_back(server.RemoveVm(vm_id));
  }
  std::stable_sort(lost.begin(), lost.end(),
                   [](const std::unique_ptr<Vm>& a, const std::unique_ptr<Vm>& b) {
                     if (a->priority() != b->priority()) {
                       return a->priority() == VmPriority::kHigh;
                     }
                     return a->id() < b->id();
                   });
  for (auto& vm : lost) {
    ResetVmDeflation(*vm);
    vm->set_state(VmState::kPending);
    const VmId vm_id = vm->id();
    const ResourceVector size = vm->size();
    const bool low_priority = vm->deflatable();
    const PlaceOutcome placed = TryPlace(vm);
    if (placed.ok) {
      registry.Add(metrics_.crash_replaced);
      continue;
    }
    if (low_priority) {
      // Crash-induced revocation: outcome 4 distinguishes it from policy
      // preemption (outcome 0) in the trace, and crash_preempted keeps it
      // out of the preemption-probability numerator.
      registry.Add(metrics_.crash_preempted);
      telemetry_->trace().Record(TraceEventKind::kPreemption, CascadeLayer::kNone,
                                 vm_id, id, size, ResourceVector::Zero(), 4);
      vm->set_state(VmState::kPreempted);
      preempted_since_take_.push_back(vm_id);
    } else {
      registry.Add(metrics_.crash_lost);
      telemetry_->trace().Record(TraceEventKind::kRejection, CascadeLayer::kNone,
                                 vm_id, id, size, ResourceVector::Zero(), 4);
      vm->set_state(VmState::kPreempted);
    }
  }
}

void ClusterManager::DegradeServer(ServerId id) {
  const int index = ServerIndex(id);
  if (index < 0 || health_[index] != ServerHealth::kHealthy) {
    return;
  }
  health_[index] = ServerHealth::kDegraded;
  telemetry_->metrics().Add(metrics_.server_degrades);
  UpdateHealthGauge();
  telemetry_->trace().Record(TraceEventKind::kServerDegrade, CascadeLayer::kNone, -1,
                             id, ResourceVector::Zero(), ResourceVector::Zero(), 0);
}

void ClusterManager::RecoverServer(ServerId id) {
  const int index = ServerIndex(id);
  if (index < 0 || health_[index] != ServerHealth::kDown) {
    return;
  }
  health_[index] = ServerHealth::kRecovering;
  telemetry_->metrics().Add(metrics_.server_recoveries);
  UpdateHealthGauge();
  telemetry_->trace().Record(TraceEventKind::kServerRecover, CascadeLayer::kNone, -1,
                             id, servers_[index]->capacity(), ResourceVector::Zero(),
                             0);
  // The returned capacity relieves cluster pressure; survivors that were
  // squeezed while the server was down get their resources back.
  if (config_.strategy == ReclamationStrategy::kDeflation) {
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (health_[i] == ServerHealth::kHealthy ||
          health_[i] == ServerHealth::kDegraded) {
        controllers_[i]->ReinflateAll();
      }
    }
  }
}

void ClusterManager::MarkHealthy(ServerId id) {
  const int index = ServerIndex(id);
  if (index < 0) {
    return;
  }
  if (health_[index] == ServerHealth::kRecovering ||
      health_[index] == ServerHealth::kDegraded) {
    health_[index] = ServerHealth::kHealthy;
    UpdateHealthGauge();
  }
}

double ClusterManager::Utilization() const {
  ResourceVector allocated;
  ResourceVector capacity;
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (health_[i] == ServerHealth::kDown) {
      continue;  // a down server's capacity is not serving anyone
    }
    allocated += servers_[i]->Allocated();
    capacity += servers_[i]->capacity();
  }
  double util = 0.0;
  for (const ResourceKind kind : kAllResources) {
    if (capacity[kind] > 0.0) {
      util = std::max(util, allocated[kind] / capacity[kind]);
    }
  }
  return std::min(util, 1.0);
}

double ClusterManager::Overcommitment() const {
  ResourceVector nominal;
  ResourceVector capacity;
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (health_[i] == ServerHealth::kDown) {
      continue;
    }
    capacity += servers_[i]->capacity();
    // Cached per-server nominal demand (folded in hosting order), summed in
    // server order: O(servers) on warm caches.
    nominal += servers_[i]->NominalDemand();
  }
  double oc = 0.0;
  for (const ResourceKind kind : kAllResources) {
    if (capacity[kind] > 0.0) {
      oc = std::max(oc, nominal[kind] / capacity[kind]);
    }
  }
  return oc;
}

void ClusterManager::CollectUsageSamples(std::vector<ServerUsageSample>* out) {
  // Keep the outer entries and each inner vms buffer (clear, not destroy).
  out->resize(servers_.size());
  for (size_t i = 0; i < servers_.size(); ++i) {
    ServerUsageSample& sample = (*out)[i];
    sample.nominal_overcommitment = servers_[i]->NominalOvercommitment();
    sample.vms.clear();
    for (const auto& vm : servers_[i]->vms()) {
      sample.vms.push_back(ServerUsageSample::VmUsage{
          vm->priority() == VmPriority::kLow, vm->size().cpu(), vm->effective().cpu()});
    }
  }
}

double ClusterManager::HighPriorityEffectiveCpu() {
  double sum = 0.0;
  for (const auto& server : servers_) {
    for (const auto& vm : server->vms()) {
      if (vm->priority() == VmPriority::kHigh) {
        sum += vm->effective().cpu();
      }
    }
  }
  return sum;
}

void ClusterManager::ReinflateSweep(double holdback_cpu_per_server) {
  for (size_t i = 0; i < servers_.size(); ++i) {
    // Hold back capacity-shaped headroom for forecast demand.
    const double cpu = servers_[i]->capacity().cpu();
    const ResourceVector holdback =
        cpu > 0.0 ? servers_[i]->capacity() * (holdback_cpu_per_server / cpu)
                  : ResourceVector::Zero();
    controllers_[i]->ReinflateAll(holdback);
  }
}

std::vector<double> ClusterManager::PerServerOvercommitment() const {
  std::vector<double> out;
  out.reserve(servers_.size());
  for (const auto& server : servers_) {
    out.push_back(server->NominalOvercommitment());
  }
  return out;
}

}  // namespace defl

#include "src/core/local_controller.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace defl {

const char* DeflationSplitName(DeflationSplit split) {
  switch (split) {
    case DeflationSplit::kProportional:
      return "proportional";
    case DeflationSplit::kEqual:
      return "equal";
  }
  return "?";
}

LocalController::LocalController(Server* server, const LocalControllerConfig& config)
    : server_(server), config_(config), cascade_(config.mode, config.latency) {
  assert(server_ != nullptr);
}

void LocalController::AttachTelemetry(TelemetryContext* telemetry) {
  telemetry_ = telemetry;
  cascade_.AttachTelemetry(telemetry);
  for (const auto& [id, guard] : guards_) {
    guard->AttachTelemetry(telemetry);
  }
  if (telemetry_ == nullptr) {
    metrics_ = {};
    return;
  }
  MetricsRegistry& registry = telemetry_->metrics();
  metrics_.make_room_calls = registry.Counter("controller/make_room/calls");
  metrics_.make_room_failures = registry.Counter("controller/make_room/failures");
  metrics_.preemptions = registry.Counter("controller/preemptions");
  metrics_.make_room_latency_s = registry.Distribution("controller/make_room/latency_s");
}

void LocalController::AttachFaultInjector(FaultInjector* faults) {
  faults_ = faults;
  cascade_.AttachFaultInjector(faults);
  if (faults_ == nullptr) {
    guards_.clear();
    return;
  }
  for (const auto& [id, agent] : agents_) {
    WrapAgent(id, agent);
  }
}

void LocalController::WrapAgent(VmId id, DeflationAgent* agent) {
  auto guard = std::make_unique<GuardedAgent>(id, agent, faults_, config_.guard);
  guard->AttachTelemetry(telemetry_);
  guards_[id] = std::move(guard);
}

void LocalController::RegisterAgent(VmId id, DeflationAgent* agent) {
  agents_[id] = agent;
  if (faults_ != nullptr) {
    WrapAgent(id, agent);
  }
}

void LocalController::UnregisterAgent(VmId id) {
  agents_.erase(id);
  guards_.erase(id);
}

DeflationAgent* LocalController::FindAgent(VmId id) const {
  const auto guard = guards_.find(id);
  if (guard != guards_.end()) {
    return guard->second.get();
  }
  const auto it = agents_.find(id);
  return it != agents_.end() ? it->second : nullptr;
}

GuardedAgent* LocalController::FindGuard(VmId id) const {
  const auto guard = guards_.find(id);
  return guard != guards_.end() ? guard->second.get() : nullptr;
}

DeflationOutcome LocalController::GuardedDeflate(Vm& vm, const ResourceVector& target) {
  DeflationOutcome outcome = cascade_.Deflate(vm, FindAgent(vm.id()), target, Options());
  if (GuardedAgent* guard = FindGuard(vm.id())) {
    // Timeouts, retries, and backoff waits happened inside the app stage;
    // they are wall-clock time the reclamation spent.
    outcome.latency_seconds += guard->TakeInjectedDelay();
  }
  return outcome;
}

ResourceVector LocalController::DeflatedBy(const Vm& vm) {
  return vm.guest_os().unplugged() + vm.hv_reclaimed();
}

DeflationOutcome LocalController::DeflateVm(VmId id, const ResourceVector& target) {
  Vm* vm = server_->FindVm(id);
  assert(vm != nullptr);
  return GuardedDeflate(*vm, target);
}

CascadeOptions LocalController::Options() const {
  CascadeOptions options;
  options.deadline_s = config_.deflation_deadline_s;
  return options;
}

ReclaimResult LocalController::MakeRoom(const ResourceVector& demand) {
  ReclaimResult result;
  ResourceVector need = (demand - server_->Free()).ClampNonNegative();
  if (need.IsZero()) {
    result.success = true;
    return result;
  }
  if (telemetry_ != nullptr) {
    telemetry_->metrics().Add(metrics_.make_room_calls);
  }

  // Preempt while even full deflation of every low-priority VM cannot cover
  // the shortfall. "VMs that are farthest from their deflation target are
  // preempted" (Section 5): the gap between a VM's proportional share of the
  // shortfall and what it can actually give is largest for the least
  // deflatable VMs.
  while (!need.AllLeq(server_->Deflatable())) {
    Vm* victim = nullptr;
    double worst_gap = -1.0;
    for (const auto& vm : server_->vms()) {
      if (!vm->deflatable() || vm->state() != VmState::kRunning) {
        continue;
      }
      // Shortfall this VM cannot absorb even if deflated to its minimum,
      // measured along the dominant dimension of the remaining need.
      const ResourceVector gap_vec = (need - vm->deflatable_amount()).ClampNonNegative();
      const double gap = gap_vec.SafeDivide(server_->capacity()).MaxComponent();
      if (gap > worst_gap) {
        worst_gap = gap;
        victim = vm.get();
      }
    }
    if (victim == nullptr) {
      // No low-priority VMs left to preempt; demand cannot be satisfied.
      result.success = false;
      result.freed = (demand - (demand - server_->Free()).ClampNonNegative());
      if (telemetry_ != nullptr) {
        telemetry_->metrics().Add(metrics_.make_room_failures);
      }
      return result;
    }
    const VmId victim_id = victim->id();
    DEFL_LOG(kInfo) << "server " << server_->id() << ": preempting VM " << victim_id;
    if (telemetry_ != nullptr) {
      telemetry_->metrics().Add(metrics_.preemptions);
      telemetry_->trace().Record(TraceEventKind::kPreemption, CascadeLayer::kNone,
                                 victim_id, server_->id(), need, victim->effective(),
                                 0);
    }
    victim->set_state(VmState::kPreempted);
    UnregisterAgent(victim_id);
    server_->RemoveVm(victim_id);  // frees its whole effective allocation
    result.preempted.push_back(victim_id);
    need = (demand - server_->Free()).ClampNonNegative();
    if (need.IsZero()) {
      result.success = true;
      result.freed = demand;
      return result;
    }
  }

  // Split the shortfall across deflatable VMs: proportionally to their
  // headroom (x_i = need * deflatable_i / sum_j deflatable_j, the paper's
  // policy) or equally (the ablation baseline), scaled back by alpha.
  const ResourceVector total_deflatable = server_->Deflatable();
  int deflatable_count = 0;
  for (const auto& vm : server_->vms()) {
    if (vm->deflatable() && vm->state() == VmState::kRunning) {
      ++deflatable_count;
    }
  }
  for (const auto& vm : server_->vms()) {
    if (!vm->deflatable() || vm->state() != VmState::kRunning) {
      continue;
    }
    const ResourceVector deflatable = vm->deflatable_amount();
    ResourceVector target;
    for (const ResourceKind kind : kAllResources) {
      if (total_deflatable[kind] <= 0.0 || need[kind] <= 0.0) {
        continue;
      }
      const double share =
          config_.split == DeflationSplit::kProportional
              ? deflatable[kind] / total_deflatable[kind]
              : 1.0 / static_cast<double>(std::max(deflatable_count, 1));
      target[kind] = need[kind] * share * (1.0 - config_.alpha);
    }
    if (!target.AnyPositive()) {
      continue;
    }
    const DeflationOutcome outcome = GuardedDeflate(*vm, target);
    result.freed += outcome.TotalReclaimed();
    result.latency_seconds = std::max(result.latency_seconds, outcome.latency_seconds);
    result.deflated.push_back(vm->id());
  }

  result.success = demand.AllLeq(server_->Free(), 1e-6);
  if (!result.success) {
    // Proportional split can under-deliver when a VM misses its target
    // (e.g. unplug granularity). Sweep up the remainder greedily.
    ResourceVector residual = (demand - server_->Free()).ClampNonNegative();
    for (const auto& vm : server_->vms()) {
      if (!residual.AnyPositive()) {
        break;
      }
      if (!vm->deflatable() || vm->state() != VmState::kRunning) {
        continue;
      }
      const ResourceVector take = residual.Min(vm->deflatable_amount());
      if (!take.AnyPositive()) {
        continue;
      }
      const DeflationOutcome outcome = GuardedDeflate(*vm, take);
      result.freed += outcome.TotalReclaimed();
      result.latency_seconds = std::max(result.latency_seconds, outcome.latency_seconds);
      residual = (demand - server_->Free()).ClampNonNegative();
    }
    result.success = demand.AllLeq(server_->Free(), 1e-6);
  }
  if (telemetry_ != nullptr) {
    MetricsRegistry& registry = telemetry_->metrics();
    registry.Observe(metrics_.make_room_latency_s, result.latency_seconds);
    if (!result.success) {
      registry.Add(metrics_.make_room_failures);
    }
  }
  return result;
}

ResourceVector LocalController::ReinflateAll(const ResourceVector& hold_back) {
  return ApplyReinflate(PlanReinflate(hold_back));
}

ReinflatePlan LocalController::PlanReinflate(const ResourceVector& hold_back) const {
  ReinflatePlan plan;
  const ResourceVector pool = (server_->Free() - hold_back).ClampNonNegative();
  if (!pool.AnyPositive()) {
    return plan;
  }

  // Proportional to how much each VM is currently deflated by. Each entry's
  // give depends only on these pre-scan totals, never on earlier entries, so
  // planning ahead of the apply loop is arithmetically identical to the old
  // fused loop.
  ResourceVector total_deflated;
  for (const auto& vm : server_->vms()) {
    total_deflated += DeflatedBy(*vm);
  }
  if (!total_deflated.AnyPositive()) {
    return plan;
  }

  for (const auto& vm : server_->vms()) {
    const ResourceVector deflated = DeflatedBy(*vm);
    ResourceVector give;
    for (const ResourceKind kind : kAllResources) {
      if (total_deflated[kind] > 0.0) {
        give[kind] = std::min(pool[kind] * deflated[kind] / total_deflated[kind],
                              deflated[kind]);
      }
    }
    if (!give.AnyPositive()) {
      continue;
    }
    plan.entries.push_back(ReinflatePlan::Entry{vm.get(), give});
  }
  return plan;
}

ResourceVector LocalController::ApplyReinflate(const ReinflatePlan& plan) {
  ResourceVector returned_total;
  for (const ReinflatePlan::Entry& entry : plan.entries) {
    returned_total += cascade_.Reinflate(*entry.vm, FindAgent(entry.vm->id()), entry.give);
  }
  return returned_total;
}

}  // namespace defl

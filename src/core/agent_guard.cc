#include "src/core/agent_guard.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace defl {

GuardedAgent::GuardedAgent(VmId vm_id, DeflationAgent* inner, FaultInjector* faults,
                           const AgentGuardConfig& config)
    : vm_id_(vm_id), inner_(inner), faults_(faults), config_(config) {
  // Registration happens while the agent is known-good; seed the cached
  // footprint so a later outage never reports an empty application.
  last_footprint_mb_ = inner_ != nullptr ? inner_->MemoryFootprintMb() : 0.0;
}

void GuardedAgent::AttachTelemetry(TelemetryContext* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    metrics_ = {};
    return;
  }
  MetricsRegistry& registry = telemetry_->metrics();
  metrics_.timeouts = registry.Counter("faults/agent_rpc/timeouts");
  metrics_.retries = registry.Counter("faults/agent_rpc/retries");
  metrics_.breaker_trips = registry.Counter("faults/breaker/trips");
  metrics_.breaker_resets = registry.Counter("faults/breaker/resets");
  metrics_.fall_throughs = registry.Counter("faults/breaker/fall_throughs");
}

double GuardedAgent::TakeInjectedDelay() {
  const double delay = pending_delay_s_;
  pending_delay_s_ = 0.0;
  return delay;
}

bool GuardedAgent::AttemptTimesOut() {
  if (faults_ == nullptr) {
    return false;
  }
  const FaultDecision unresponsive =
      faults_->Sample(FaultKind::kAgentUnresponsive, vm_id_, -1);
  if (unresponsive.fired) {
    pending_delay_s_ += config_.rpc_timeout_s;
    return true;
  }
  const FaultDecision slow = faults_->Sample(FaultKind::kAgentSlow, vm_id_, -1);
  if (slow.fired) {
    if (slow.magnitude > config_.rpc_timeout_s && config_.rpc_timeout_s > 0.0) {
      pending_delay_s_ += config_.rpc_timeout_s;  // gave up waiting
      return true;
    }
    pending_delay_s_ += slow.magnitude;
  }
  return false;
}

void GuardedAgent::NoteTimeout() {
  ++timeouts_;
  ++consecutive_timeouts_;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().Add(metrics_.timeouts);
    telemetry_->trace().Record(TraceEventKind::kAgentTimeout, CascadeLayer::kApplication,
                               vm_id_, -1, ResourceVector::Zero(),
                               ResourceVector::Zero(), consecutive_timeouts_);
  }
  if (!breaker_open_ && consecutive_timeouts_ >= config_.breaker_threshold) {
    breaker_open_ = true;
    ++breaker_trips_;
    DEFL_LOG(kInfo) << "vm " << vm_id_ << ": agent circuit breaker opened after "
                    << consecutive_timeouts_ << " consecutive timeouts";
    if (telemetry_ != nullptr) {
      telemetry_->metrics().Add(metrics_.breaker_trips);
      telemetry_->trace().Record(TraceEventKind::kBreakerTrip, CascadeLayer::kApplication,
                                 vm_id_, -1, ResourceVector::Zero(),
                                 ResourceVector::Zero(), consecutive_timeouts_);
    }
  }
}

bool GuardedAgent::ProbeAndMaybeClose() {
  // One footprint-query round trip; the probe itself can time out.
  if (AttemptTimesOut()) {
    ++timeouts_;
    if (telemetry_ != nullptr) {
      telemetry_->metrics().Add(metrics_.timeouts);
      telemetry_->metrics().Add(metrics_.fall_throughs);
    }
    return false;
  }
  last_footprint_mb_ = inner_->MemoryFootprintMb();
  breaker_open_ = false;
  consecutive_timeouts_ = 0;
  DEFL_LOG(kInfo) << "vm " << vm_id_ << ": footprint probe succeeded, breaker closed";
  if (telemetry_ != nullptr) {
    telemetry_->metrics().Add(metrics_.breaker_resets);
    telemetry_->trace().Record(TraceEventKind::kBreakerReset, CascadeLayer::kApplication,
                               vm_id_, -1, ResourceVector::Zero(),
                               ResourceVector(0.0, last_footprint_mb_), 0);
  }
  return true;
}

ResourceVector GuardedAgent::SelfDeflate(const ResourceVector& target) {
  if (inner_ == nullptr) {
    return ResourceVector::Zero();
  }
  if (breaker_open_ && !ProbeAndMaybeClose()) {
    // Agent still dead: fall straight through to the OS/hypervisor layers.
    return ResourceVector::Zero();
  }
  for (int attempt = 0; attempt < std::max(config_.max_attempts, 1); ++attempt) {
    if (attempt > 0) {
      pending_delay_s_ += std::min(config_.backoff_base_s * std::pow(2.0, attempt - 1),
                                   config_.backoff_cap_s);
      ++retries_;
      if (telemetry_ != nullptr) {
        telemetry_->metrics().Add(metrics_.retries);
      }
    }
    if (AttemptTimesOut()) {
      NoteTimeout();
      if (breaker_open_) {
        return ResourceVector::Zero();  // tripped mid-request
      }
      continue;
    }
    consecutive_timeouts_ = 0;
    ResourceVector freed = inner_->SelfDeflate(target).ClampNonNegative();
    if (faults_ != nullptr) {
      const FaultDecision shorted =
          faults_->Sample(FaultKind::kAgentShortDelivery, vm_id_, -1);
      if (shorted.fired) {
        freed = freed * std::clamp(shorted.magnitude, 0.0, 1.0);
      }
    }
    last_footprint_mb_ = inner_->MemoryFootprintMb();
    return freed;
  }
  return ResourceVector::Zero();  // every attempt timed out; fall through
}

void GuardedAgent::OnReinflate(const ResourceVector& added) {
  if (inner_ == nullptr || breaker_open_) {
    return;  // a lost reinflate notice is harmless; the app catches up later
  }
  if (AttemptTimesOut()) {
    NoteTimeout();
    return;
  }
  consecutive_timeouts_ = 0;
  inner_->OnReinflate(added);
  last_footprint_mb_ = inner_->MemoryFootprintMb();
}

double GuardedAgent::MemoryFootprintMb() const {
  if (inner_ == nullptr) {
    return 0.0;
  }
  if (breaker_open_) {
    return last_footprint_mb_;
  }
  last_footprint_mb_ = inner_->MemoryFootprintMb();
  return last_footprint_mb_;
}

}  // namespace defl

#include "src/cluster/sim_session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "src/cluster/predictor.h"
#include "src/cluster/session_codec.h"
#include "src/cluster/slo_controller.h"
#include "src/faults/fault_injector.h"
#include "src/hypervisor/vm.h"
#include "src/sim/snapshot_io.h"

namespace defl {
namespace {

// Drift-free periodic chains: tick k fires at exactly k * period. The chains
// are seeded at t = period, so the fire index is recoverable from the entry's
// own timestamp -- snapshots carry no extra state. Accumulating
// `when + period` instead compounds one rounding error per tick over
// million-tick cloud runs.
double NextPeriodicFire(double when, double period) {
  return (std::round(when / period) + 1.0) * period;
}

// Heap comparator: the *earliest* (when, seq) entry is popped first; seq
// breaks same-time ties in scheduling order, the determinism backbone.
struct LaterEntry {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }
};

Result<bool> ValidateConfig(const ClusterSimConfig& config) {
  if (config.num_servers <= 0) {
    return Error{"num_servers must be positive"};
  }
  if (config.sample_period_s <= 0.0) {
    return Error{"sample_period_s must be positive"};
  }
  if (config.reinflate_period_s < 0.0) {
    return Error{"reinflate_period_s must be non-negative"};
  }
  if (config.trace.duration_s < 0.0) {
    return Error{"trace.duration_s must be non-negative"};
  }
  if (config.recovery_grace_s < 0.0) {
    return Error{"recovery_grace_s must be non-negative"};
  }
  const std::string trace_error = ValidateTrace(config.explicit_trace);
  if (!trace_error.empty()) {
    return Error{"explicit_trace " + trace_error};
  }
  const std::string arrivals_error = ValidateArrivalGen(config.arrivals);
  if (!arrivals_error.empty()) {
    return Error{"arrivals: " + arrivals_error};
  }
  if (config.interactive.enabled) {
    const InteractiveSloConfig& i = config.interactive;
    if (i.fraction < 0.0 || i.fraction > 1.0) {
      return Error{"interactive.fraction must be in [0, 1]"};
    }
    if (i.slo_p99_ms <= 0.0) {
      return Error{"interactive.slo_p99_ms must be positive"};
    }
    if (i.control_period_s <= 0.0) {
      return Error{"interactive.control_period_s must be positive"};
    }
    if (i.rate_rps_per_cpu < 0.0) {
      return Error{"interactive.rate_rps_per_cpu must be non-negative"};
    }
    if (i.rate_amplitude < 0.0 || i.rate_amplitude > 1.0) {
      return Error{"interactive.rate_amplitude must be in [0, 1]"};
    }
    if (i.rate_period_s <= 0.0) {
      return Error{"interactive.rate_period_s must be positive"};
    }
    if (i.latency.base_service_us <= 0.0) {
      return Error{"interactive.latency.base_service_us must be positive"};
    }
    if (i.latency.knee_fraction < 0.0 || i.latency.knee_fraction >= 1.0) {
      return Error{"interactive.latency.knee_fraction must be in [0, 1)"};
    }
    if (i.latency.max_utilization <= 0.0 || i.latency.max_utilization >= 1.0) {
      return Error{"interactive.latency.max_utilization must be in (0, 1)"};
    }
  }
  return true;
}

}  // namespace

// Everything a running session owns. The address is pinned inside the
// session's unique_ptr, so the telemetry clock callback can capture `this`.
struct SimSession::State {
  ClusterSimConfig config;

  TelemetryContext* telemetry = nullptr;
  std::unique_ptr<TelemetryContext> owned_telemetry;
  std::unique_ptr<ClusterManager> manager;
  std::unique_ptr<FaultInjector> injector;
  // The plan's whole-server availability timeline, re-derived (not
  // serialized) from the plan on both Open and Restore -- ServerEventsFor is
  // a pure function of plan + server count.
  std::vector<FaultInjector::ServerEvent> fault_events;
  // The materialized arrival trace; VmId == index. Inlined into snapshots
  // only when it was handed in explicitly -- a config-generated trace is
  // regenerated (or adopted from RestoreOptions::trace) on restore and only
  // its length + checksum are serialized, keeping checkpoint I/O
  // proportional to live state, not trace length. Never written once set:
  // it may be shared with other sessions.
  std::shared_ptr<const std::vector<TraceEvent>> trace;
  bool trace_generated = false;
  // TraceChecksum(*trace), taken on first read (TraceFnv) and kept until
  // the trace is replaced: Open and an SLO re-tag never read it.
  mutable std::optional<uint64_t> trace_fnv;
  // The arrival cursor: trace[i] for i >= next_arrival has not run yet and
  // is due at (arrival_s, |fault timeline| + i) (ArrivalEntry). The trace
  // is sorted, so trace[next_arrival] is the earliest of them; RunEvents
  // merges it with the heap.
  size_t next_arrival = 0;
  EwmaPredictor predictor;

  SeriesHandle util_series;
  SeriesHandle oc_series;
  SeriesHandle server_oc_series;
  GaugeHandle low_vm_hours;
  GaugeHandle low_nominal_cpu_hours;
  GaugeHandle low_effective_cpu_hours;
  GaugeHandle high_cpu_hours;
  DistributionHandle allocation_quality;
  // Its metrics are registered only when interactive.enabled.
  SloController slo;

  SessionClock clock;
  // Binary heap under LaterEntry of every pending event but the cursor's
  // arrivals: completions, ticks, fault events, and same-instant arrivals
  // a restored snapshot listed (RestoreQueue).
  std::vector<QueueEntry> queue;
  double dt_hours = 0.0;
  std::vector<ClusterManager::ServerUsageSample> usage_samples;  // scratch

  ~State() {
    if (telemetry != nullptr) {
      telemetry->trace().ClearClock();
    }
  }

  // Sets a private arrival trace, for Open, Restore and the SLO override
  // alike. An `adopted` (explicit) trace is authoritative: VMs it already
  // names "web*" are interactive, nothing is re-tagged. Otherwise the
  // config's generator runs and the interactive mix is tagged. The
  // checksum is left for its first reader; it covers the tags, so a restore
  // that regenerates and re-tags with the snapshotted mix can verify
  // against it.
  void MaterializeTrace(std::optional<std::vector<TraceEvent>> adopted) {
    trace_generated = !adopted.has_value();
    std::vector<TraceEvent> events =
        trace_generated ? GenerateArrivalTrace(config.trace, config.arrivals)
                        : std::move(*adopted);
    if (trace_generated && config.interactive.enabled) {
      ApplyInteractiveMix(events, config.interactive);
    }
    trace_fnv.reset();
    trace = std::make_shared<const std::vector<TraceEvent>>(std::move(events));
  }

  uint64_t TraceFnv() const {
    if (!trace_fnv.has_value()) {
      trace_fnv = TraceChecksum(*trace);
    }
    return *trace_fnv;
  }

  void Push(double when, SimEventKind kind, int64_t payload) {
    queue.push_back(QueueEntry{when, clock.next_seq++, kind, payload});
    std::push_heap(queue.begin(), queue.end(), LaterEntry{});
  }

  // Arrival i as a queue entry, keyed by the seq Open reserved for it right
  // after the fault timeline -- the same-time tie-break it always had.
  QueueEntry ArrivalEntry(size_t i) const {
    return QueueEntry{(*trace)[i].arrival_s,
                      static_cast<int64_t>(fault_events.size() + i),
                      SimEventKind::kVmArrival, static_cast<int64_t>(i)};
  }

  // Whether the cursor's arrival runs before the heap top.
  bool CursorFirst() const {
    return next_arrival < trace->size() &&
           (queue.empty() || LaterEntry{}(queue.front(), ArrivalEntry(next_arrival)));
  }

  // Whether the next event -- the heap top or the cursor's arrival,
  // whichever LaterEntry orders first -- is due at or before `horizon`.
  bool Due(double horizon) const {
    if (CursorFirst()) {
      return (*trace)[next_arrival].arrival_s <= horizon;
    }
    return !queue.empty() && queue.front().when <= horizon;
  }

  // Removes and returns the next event (see Due).
  QueueEntry PopNext() {
    if (CursorFirst()) {
      return ArrivalEntry(next_arrival++);
    }
    std::pop_heap(queue.begin(), queue.end(), LaterEntry{});
    const QueueEntry entry = queue.back();
    queue.pop_back();
    return entry;
  }

  // Executes up to `max_events` events due at or before `horizon`, in
  // (when, seq) order, advancing the clock to each; returns how many ran.
  int64_t RunEvents(double horizon, int64_t max_events) {
    int64_t executed = 0;
    while (executed < max_events && Due(horizon)) {
      const QueueEntry entry = PopNext();
      assert(entry.when >= clock.now);
      clock.now = entry.when;
      ++clock.events_executed;
      Execute(entry);
      ++executed;
    }
    return executed;
  }

  // Simulator::Run(until) semantics: every event with when <= until runs,
  // later events stay queued, and the clock lands exactly on `until`.
  void RunUntil(double until) {
    RunEvents(until, std::numeric_limits<int64_t>::max());
    clock.now = std::max(clock.now, until);
  }

  void Execute(const QueueEntry& entry) {
    switch (entry.kind) {
      case SimEventKind::kFaultEvent: {
        const FaultInjector::ServerEvent& event =
            fault_events[static_cast<size_t>(entry.payload)];
        switch (event.kind) {
          case FaultKind::kServerCrash:
            manager->CrashServer(event.server);
            break;
          case FaultKind::kServerDegrade:
            manager->DegradeServer(event.server);
            break;
          case FaultKind::kServerRecover:
            manager->RecoverServer(event.server);
            Push(entry.when + config.recovery_grace_s, SimEventKind::kMarkHealthy,
                 event.server);
            break;
          default:
            break;
        }
        break;
      }
      case SimEventKind::kMarkHealthy:
        manager->MarkHealthy(entry.payload);
        break;
      case SimEventKind::kVmArrival: {
        const TraceEvent& event = (*trace)[static_cast<size_t>(entry.payload)];
        auto vm = std::make_unique<Vm>(entry.payload, event.spec);
        const Result<ServerId> placed = manager->LaunchVm(std::move(vm));
        if (placed.ok()) {
          Push(entry.when + event.lifetime_s, SimEventKind::kVmCompletion,
               entry.payload);
        }
        break;
      }
      case SimEventKind::kVmCompletion:
        // The VM may have been preempted in the meantime; completing a
        // missing VM is a no-op.
        if (manager->FindVm(entry.payload) != nullptr) {
          manager->CompleteVm(entry.payload);
        }
        break;
      case SimEventKind::kSampleTick:
        SampleTick();
        Push(NextPeriodicFire(entry.when, config.sample_period_s),
             SimEventKind::kSampleTick, 0);
        break;
      case SimEventKind::kReinflateTick:
        ReinflateTick();
        Push(NextPeriodicFire(entry.when, config.reinflate_period_s),
             SimEventKind::kReinflateTick, 0);
        break;
      case SimEventKind::kSloTick:
        slo.Tick(*manager, config.interactive, clock.now, telemetry->metrics());
        Push(NextPeriodicFire(entry.when, config.interactive.control_period_s),
             SimEventKind::kSloTick, 0);
        break;
    }
  }

  // The sampling sweep gathers every server's usage snapshot and folds it
  // into the registry in (server, hosting) order.
  void SampleTick() {
    MetricsRegistry& registry = telemetry->metrics();
    const double now = clock.now;
    manager->CollectUsageSamples(&usage_samples);  // also warms all caches
    registry.ObserveAt(util_series, now, manager->Utilization());
    registry.ObserveAt(oc_series, now, manager->Overcommitment());
    for (const ClusterManager::ServerUsageSample& sample : usage_samples) {
      registry.ObserveAt(server_oc_series, now, sample.nominal_overcommitment);
      for (const ClusterManager::ServerUsageSample::VmUsage& vm : sample.vms) {
        if (vm.low_priority) {
          registry.AddTo(low_vm_hours, dt_hours);
          registry.AddTo(low_nominal_cpu_hours, vm.nominal_cpu * dt_hours);
          registry.AddTo(low_effective_cpu_hours, vm.effective_cpu * dt_hours);
          if (vm.nominal_cpu > 0.0) {
            registry.Observe(allocation_quality, vm.effective_cpu / vm.nominal_cpu);
          }
        } else {
          registry.AddTo(high_cpu_hours, vm.effective_cpu * dt_hours);
        }
      }
    }
  }

  // Proactive reinflation loop (optionally with predictive holdback).
  void ReinflateTick() {
    const double high_pri_cpu = manager->HighPriorityEffectiveCpu();
    predictor.Observe(high_pri_cpu);
    double holdback_cpu_per_server = 0.0;
    if (config.predictive_holdback && predictor.initialized()) {
      const double expected_growth =
          std::max(0.0, predictor.UpperBound(1.0) - high_pri_cpu);
      holdback_cpu_per_server = expected_growth / config.num_servers;
    }
    manager->ReinflateSweep(holdback_cpu_per_server);
  }

  // Canonical queue image: sorted by (when, seq), independent of the heap's
  // internal array layout, so identical logical states snapshot to identical
  // bytes. Strictly-future VM arrivals are elided: their keys follow from
  // the trace, so the restore side points its cursor past `now` instead.
  // The cursor's arrivals AT `now` (an event-boundary snapshot can leave
  // same-instant stragglers unexecuted) are the only ones written out.
  std::vector<QueueEntry> CanonicalQueue() const {
    std::vector<QueueEntry> entries(queue.begin(), queue.end());
    for (size_t i = next_arrival;
         i < trace->size() && (*trace)[i].arrival_s <= clock.now; ++i) {
      entries.push_back(ArrivalEntry(i));
    }
    std::sort(entries.begin(), entries.end(),
              [](const QueueEntry& a, const QueueEntry& b) { return LaterEntry{}(b, a); });
    return entries;
  }

  // Takes a snapshot's queue image, bounding each payload so a logically
  // inconsistent snapshot cannot index out of range later (the checksum
  // only protects against corruption), then sets the cursor to the first
  // arrival after `now` (see CanonicalQueue). The image's arrivals stay
  // heap entries; each must be due by `now`, so the cursor never reaches
  // one of them.
  void RestoreQueue(SnapshotDecoder& io, std::vector<QueueEntry> entries) {
    for (const QueueEntry& entry : entries) {
      bool payload_ok = true;
      switch (entry.kind) {
        case SimEventKind::kFaultEvent:
          payload_ok = entry.payload >= 0 &&
                       static_cast<size_t>(entry.payload) < fault_events.size();
          break;
        case SimEventKind::kMarkHealthy:
          payload_ok = entry.payload >= 0 && entry.payload < config.num_servers;
          break;
        case SimEventKind::kVmArrival:
          payload_ok = entry.payload >= 0 &&
                       static_cast<size_t>(entry.payload) < trace->size() &&
                       (*trace)[static_cast<size_t>(entry.payload)].arrival_s <=
                           clock.now;
          break;
        case SimEventKind::kVmCompletion:
          payload_ok = entry.payload >= 0 &&
                       static_cast<size_t>(entry.payload) < trace->size();
          break;
        case SimEventKind::kSloTick:
          // An SLO tick without the interactive config is inconsistent (its
          // reschedule would divide by a zero period).
          if (!config.interactive.enabled) {
            io.Fail("snapshot queues an SLO tick but interactive serving is "
                    "disabled in its config");
          }
          break;
        default:
          break;
      }
      if (!payload_ok) {
        io.Fail("snapshot queue entry payload " + std::to_string(entry.payload) +
                " is out of range for its event kind");
      }
      if (!io.ok()) {
        return;
      }
    }
    queue = std::move(entries);
    std::make_heap(queue.begin(), queue.end(), LaterEntry{});
    const double now = clock.now;
    next_arrival = static_cast<size_t>(
        std::partition_point(trace->begin(), trace->end(),
                             [now](const TraceEvent& e) { return e.arrival_s <= now; }) -
        trace->begin());
  }

  ManagerImage SaveManager() const {
    ManagerImage image;
    image.rng = manager->SaveRngState();
    image.health = manager->health_states();
    image.preempted = manager->pending_preempted();
    for (Server* server : manager->servers()) {
      std::vector<HostedVmImage>& vms = image.servers.emplace_back();
      vms.reserve(server->vm_count());
      for (const auto& vm : server->vms()) {
        const GuestOs& guest = vm->guest_os();
        vms.push_back(HostedVmImage{vm->id(), vm->spec(), vm->hv_reclaimed(),
                                    guest.unplugged(), guest.balloon_mb(),
                                    guest.app_used_mb(), guest.page_cache_mb(),
                                    guest.pinned_cpus()});
      }
    }
    return image;
  }

  void RestoreManager(SnapshotDecoder& io, ManagerImage image) {
    manager->RestoreRngState(image.rng);
    if (!manager->RestoreHealthStates(image.health)) {
      io.Fail("snapshot has " + std::to_string(image.health.size()) +
              " server health entries for " + std::to_string(config.num_servers) +
              " servers");
      return;
    }
    manager->RestorePreempted(std::move(image.preempted));
    if (image.servers.size() != static_cast<size_t>(config.num_servers)) {
      io.Fail("snapshot has " + std::to_string(image.servers.size()) +
              " server sections for " + std::to_string(config.num_servers) +
              " servers");
      return;
    }
    // Reinstate each VM exactly as it was -- direct state injection, no
    // TryUnplug/HvReclaim replay (those would consume RNG/fault draws the
    // snapshotting run already took). Adoption in (server, hosting) order
    // replays the admission order, so per-server accounting caches
    // recompute to the exact same folds.
    size_t vms = 0;
    for (const std::vector<HostedVmImage>& hosted : image.servers) {
      vms += hosted.size();
    }
    manager->ReserveVmIndex(vms);
    for (size_t server = 0; server < image.servers.size(); ++server) {
      for (HostedVmImage& hosted : image.servers[server]) {
        auto vm = std::make_unique<Vm>(hosted.id, std::move(hosted.spec));
        vm->guest_os().set_app_used_mb(hosted.app_used_mb);
        vm->guest_os().set_page_cache_mb(hosted.page_cache_mb);
        vm->guest_os().set_pinned_cpus(static_cast<int>(hosted.pinned_cpus));
        vm->guest_os().RestoreDeflationState(hosted.unplugged, hosted.balloon_mb);
        vm->RestoreHvReclaimed(hosted.hv_reclaimed);
        manager->AdoptVm(std::move(vm), static_cast<ServerId>(server));
      }
    }
  }

  // The SLO override (DESIGN.md §16) applies only after the full parse: the
  // trace checksum was verified against the ORIGINAL config's mix, and the
  // registry import needed the snapshot's exact layout. Enabling interactive
  // serving here appends the slo/* metrics to the registry tail -- the same
  // position BuildCore gives them -- and re-tags a private regenerated trace
  // (a shared one stays as it is), so only future arrivals change;
  // already-placed VMs keep their specs. An explicit trace is authoritative
  // and keeps its own "web*" tags.
  void ApplySloOverride(SnapshotDecoder& io,
                        const RestoreOptions::SloOverride& slo_override) {
    const bool was_enabled = config.interactive.enabled;
    InteractiveSloConfig& mix = config.interactive;
    mix.enabled = true;
    if (slo_override.slo_p99_ms >= 0.0) {
      mix.slo_p99_ms = slo_override.slo_p99_ms;
    }
    if (slo_override.policy >= 0) {
      mix.slo_aware = slo_override.policy != 0;
    }
    if (slo_override.control_period_s >= 0.0) {
      mix.control_period_s = slo_override.control_period_s;
    }
    if (slo_override.fraction >= 0.0) {
      mix.fraction = slo_override.fraction;
    }
    const Result<bool> still_valid = ValidateConfig(config);
    if (!still_valid.ok()) {
      io.Fail("slo override yields an invalid config: " + still_valid.error());
      return;
    }
    if (trace_generated && (slo_override.fraction >= 0.0 || !was_enabled)) {
      MaterializeTrace(std::nullopt);
    } else if (slo_override.fraction >= 0.0) {
      io.Fail("slo override cannot re-tag an explicit trace (no generator "
              "to rerun); it tags by the \"web\" name prefix only");
      return;
    }
    if (!was_enabled) {
      slo.RegisterMetrics(telemetry->metrics());
      Push(NextPeriodicFire(clock.now, mix.control_period_s), SimEventKind::kSloTick, 0);
    }
  }
};

namespace {

// Construction shared by Open and Restore: telemetry binding, manager,
// fault injector, and metric registration, in the exact order the original
// RunClusterSim used -- reproducing it is what makes the registry layout
// (and hence DumpJson output and snapshot import) identical across runs.
std::unique_ptr<SimSession::State> BuildCore(const ClusterSimConfig& config,
                                             TelemetryContext* telemetry_override) {
  auto state = std::make_unique<SimSession::State>();
  state->config = config;
  state->predictor = EwmaPredictor(config.predictor_alpha);
  state->dt_hours = config.sample_period_s / 3600.0;

  TelemetryContext* sink =
      telemetry_override != nullptr ? telemetry_override : config.telemetry;
  if (sink != nullptr) {
    state->telemetry = sink;
  } else {
    // Private context so every result field can still be derived from the
    // registry; nothing will export the trace, so don't accumulate it.
    state->owned_telemetry = std::make_unique<TelemetryContext>();
    state->owned_telemetry->trace().set_enabled(false);
    state->telemetry = state->owned_telemetry.get();
  }
  SimSession::State* raw = state.get();
  state->telemetry->SetClock([raw] { return raw->clock.now; });

  state->manager = std::make_unique<ClusterManager>(
      config.num_servers, config.server_capacity, config.cluster, state->telemetry);
  // Only built when the plan has rules, so a faultless run registers no
  // fault metrics and its output stays byte-identical to earlier builds.
  if (!config.fault_plan.rules.empty()) {
    state->injector = std::make_unique<FaultInjector>(config.fault_plan);
    state->injector->AttachTelemetry(state->telemetry);
    state->manager->AttachFaultInjector(state->injector.get());
    state->fault_events = state->injector->ServerEventsFor(config.num_servers);
  }

  MetricsRegistry& registry = state->telemetry->metrics();
  state->util_series = registry.Series("cluster/utilization");
  state->oc_series = registry.Series("cluster/overcommitment");
  state->server_oc_series = registry.Series("cluster/server_overcommitment");
  state->low_vm_hours = registry.Gauge("cluster/usage/low_pri_vm_hours");
  state->low_nominal_cpu_hours =
      registry.Gauge("cluster/usage/low_pri_nominal_cpu_hours");
  state->low_effective_cpu_hours =
      registry.Gauge("cluster/usage/low_pri_effective_cpu_hours");
  state->high_cpu_hours = registry.Gauge("cluster/usage/high_pri_cpu_hours");
  state->allocation_quality =
      registry.Distribution("cluster/low_pri/allocation_quality");
  if (config.interactive.enabled) {
    state->slo.RegisterMetrics(registry);
  }
  return state;
}

}  // namespace

SimSession::SimSession(std::unique_ptr<State> state) : state_(std::move(state)) {}
SimSession::SimSession(SimSession&&) noexcept = default;
SimSession& SimSession::operator=(SimSession&&) noexcept = default;
SimSession::~SimSession() = default;

Result<SimSession> SimSession::Open(const ClusterSimConfig& config) {
  const Result<bool> valid = ValidateConfig(config);
  if (!valid.ok()) {
    return Error{"invalid ClusterSimConfig: " + valid.error()};
  }
  std::unique_ptr<State> state = BuildCore(config, nullptr);
  if (config.explicit_trace.empty()) {
    state->MaterializeTrace(std::nullopt);
  } else {
    // The session keeps one copy: the config's moves into the trace.
    state->MaterializeTrace(std::exchange(state->config.explicit_trace, {}));
  }

  // Schedule the whole program in the exact order the batch runner did:
  // fault timeline, then trace arrivals, then the sampling tick, then the
  // reinflation tick. Sequence numbers (the same-time tie-break) depend only
  // on this order, which pins the event interleaving byte-for-byte. The
  // arrivals are not queued: the cursor reads them from the sorted trace
  // with the seqs reserved here (ArrivalEntry).
  for (size_t i = 0; i < state->fault_events.size(); ++i) {
    state->Push(state->fault_events[i].time_s, SimEventKind::kFaultEvent,
                static_cast<int64_t>(i));
  }
  state->clock.next_seq += static_cast<int64_t>(state->trace->size());
  state->Push(config.sample_period_s, SimEventKind::kSampleTick, 0);
  if (config.reinflate_period_s > 0.0) {
    state->Push(config.reinflate_period_s, SimEventKind::kReinflateTick, 0);
  }
  if (config.interactive.enabled) {
    state->Push(config.interactive.control_period_s, SimEventKind::kSloTick, 0);
  }
  return SimSession(std::move(state));
}

double SimSession::now() const { return state_->clock.now; }
double SimSession::duration_s() const { return state_->config.trace.duration_s; }
int64_t SimSession::events_executed() const { return state_->clock.events_executed; }

bool SimSession::done() const { return !state_->Due(state_->config.trace.duration_s); }

void SimSession::StepUntil(double t) {
  state_->RunUntil(std::min(t, state_->config.trace.duration_s));
}

int64_t SimSession::StepEvents(int64_t max_events) {
  return state_->RunEvents(state_->config.trace.duration_s, max_events);
}

SimInspectView SimSession::Inspect() const {
  State& s = *state_;
  SimInspectView view;
  view.now_s = s.clock.now;
  view.duration_s = s.config.trace.duration_s;
  view.events_executed = s.clock.events_executed;
  view.pending_events =
      static_cast<int64_t>(s.queue.size() + (s.trace->size() - s.next_arrival));
  view.utilization = s.manager->Utilization();
  view.overcommitment = s.manager->Overcommitment();
  view.counters = s.manager->counters();
  const std::vector<ServerHealth>& health = s.manager->health_states();
  view.servers.reserve(health.size());
  for (Server* server : s.manager->servers()) {
    SimServerView sv;
    sv.id = server->id();
    sv.health = health[static_cast<size_t>(server->id())];
    sv.vm_count = static_cast<int64_t>(server->vm_count());
    sv.allocated = server->Allocated();
    sv.free = server->Free();
    sv.nominal_overcommitment = server->NominalOvercommitment();
    view.hosted_vms += sv.vm_count;
    view.servers.push_back(sv);
  }
  return view;
}

ClusterSimResult SimSession::Finish() {
  State& s = *state_;
  s.RunUntil(s.config.trace.duration_s);

  const MetricsRegistry& registry = s.telemetry->metrics();
  ClusterSimResult result;
  result.counters = s.manager->counters();
  const int64_t low = result.counters.launched_low_priority;
  result.preemption_probability =
      low > 0 ? static_cast<double>(result.counters.preempted) / static_cast<double>(low)
              : 0.0;
  const int64_t arrivals = result.counters.launched + result.counters.rejected;
  result.rejection_rate =
      arrivals > 0
          ? static_cast<double>(result.counters.rejected) / static_cast<double>(arrivals)
          : 0.0;
  // Everything below is a registry read: the result struct is a snapshot
  // view over the telemetry the run produced.
  result.mean_utilization =
      registry.SeriesTimeWeightedMean(s.util_series, s.config.trace.duration_s);
  result.mean_overcommitment =
      registry.SeriesTimeWeightedMean(s.oc_series, s.config.trace.duration_s);
  result.peak_overcommitment = registry.SeriesMax(s.oc_series);
  const auto& server_oc_points = registry.series_points(s.server_oc_series);
  result.server_overcommitment_samples.reserve(server_oc_points.size());
  for (const MetricsRegistry::TimePoint& point : server_oc_points) {
    result.server_overcommitment_samples.push_back(point.value);
  }
  result.usage.low_pri_vm_hours = registry.gauge(s.low_vm_hours);
  result.usage.low_pri_nominal_cpu_hours = registry.gauge(s.low_nominal_cpu_hours);
  result.usage.low_pri_effective_cpu_hours =
      registry.gauge(s.low_effective_cpu_hours);
  result.usage.high_pri_cpu_hours = registry.gauge(s.high_cpu_hours);
  result.usage.preemptions = result.counters.preempted;
  result.low_priority_allocation_quality =
      registry.distribution(s.allocation_quality).mean();
  result.crash_preemptions = result.counters.crash_preempted;
  result.crash_replacements = result.counters.crash_replaced;
  result.server_crashes = result.counters.server_crashes;
  result.server_recoveries = result.counters.server_recoveries;
  if (s.config.interactive.enabled) {
    result.interactive_vms = CountInteractive(*s.trace);
    s.slo.Report(registry, result);
  }
  return result;
}

TelemetryContext& SimSession::telemetry() { return *state_->telemetry; }
const ClusterSimConfig& SimSession::config() const { return state_->config; }
ClusterManager& SimSession::manager() { return *state_->manager; }

SimSession::SharedTrace SimSession::generated_trace() const {
  if (!state_->trace_generated) {
    return {};
  }
  return {state_->trace, state_->TraceFnv()};
}

// The section order here and in RestoreView is the snapshot format
// (DESIGN.md §11); each section's fields are listed in session_codec.h.
std::string SimSession::SnapshotBytes() const {
  const State& s = *state_;
  SnapshotWriter writer;
  SnapshotEncoder io(writer);
  Transfer(io, s.config);
  // A config-generated trace is deterministic from the config just
  // serialized, so only its length and checksum go into the snapshot; the
  // restore side regenerates and verifies. Explicit traces (replay files,
  // bench harnesses) have no generator to rerun and are inlined in full.
  TraceSection<std::span<const TraceEvent>> trace{s.trace_generated, s.trace->size(),
                                                  s.TraceFnv(), *s.trace};
  Transfer(io, trace);
  Transfer(io, s.clock);
  const std::vector<QueueEntry> queue = s.CanonicalQueue();
  Transfer(io, queue);
  const ManagerImage manager = s.SaveManager();
  Transfer(io, manager);
  std::optional<FaultInjector::State> injector;
  if (s.injector != nullptr) {
    injector = s.injector->ExportState();
  }
  Transfer(io, injector);
  Transfer(io, s.predictor);
  TelemetrySection<TraceEventView> telemetry{s.telemetry->trace().enabled(),
                                             s.telemetry->metrics().ExportState(),
                                             s.telemetry->trace().events()};
  Transfer(io, telemetry);
  return writer.Finish();
}

Result<bool> SimSession::Snapshot(const std::string& path) const {
  return WriteSnapshotFile(SnapshotBytes(), path);
}

Result<SimSession> SimSession::Restore(const std::string& path,
                                       const RestoreOptions& options) {
  Result<std::string> bytes = ReadSnapshotFile(path);
  if (!bytes.ok()) {
    return Error{bytes.error()};
  }
  Result<SimSession> session = RestoreView(bytes.value(), options);
  if (!session.ok()) {
    return Error{"cannot restore " + path + ": " + session.error()};
  }
  return session;
}

Result<SimSession> SimSession::RestoreView(std::string_view bytes,
                                           const RestoreOptions& options) {
  Result<SnapshotReader> opened = SnapshotReader::OpenView(bytes);
  if (!opened.ok()) {
    return Error{opened.error()};
  }
  SnapshotReader& reader = opened.value();
  SnapshotDecoder io(reader);

  ClusterSimConfig config;
  Transfer(io, config);
  if (!io.ok()) {
    return Error{io.error()};
  }
  config.telemetry = nullptr;
  if (options.placement >= 0) {
    if (options.placement > static_cast<int>(PlacementPolicy::kTwoChoices)) {
      return Error{"placement override " + std::to_string(options.placement) +
                   " is not a PlacementPolicy (max " +
                   std::to_string(static_cast<int>(PlacementPolicy::kTwoChoices)) +
                   ")"};
    }
    config.cluster.placement = static_cast<PlacementPolicy>(options.placement);
  }
  const Result<bool> valid = ValidateConfig(config);
  if (!valid.ok()) {
    return Error{"snapshot carries an invalid config: " + valid.error()};
  }

  std::unique_ptr<State> state = BuildCore(config, options.telemetry);
  State& s = *state;

  // Pending arrival events index into the trace, so it must be the one the
  // run used: a generated trace is adopted from the caller or rerun, and
  // must have the stored length and checksum (a generator that drifted
  // across builds fails the restore instead of corrupting it); an inlined
  // one must match its checksum and is never re-sampled.
  StoredTrace stored;
  Transfer(io, stored);
  const SharedTrace& shared = options.trace;
  if (io.ok() && stored.generated && shared.events != nullptr) {
    if (shared.events->size() != stored.length || shared.fnv != stored.fnv) {
      io.Fail("shared arrival trace does not match the snapshot's: shared " +
              std::to_string(shared.events->size()) + " arrivals, checksum " +
              Hex16(shared.fnv) + "; snapshot recorded " +
              std::to_string(stored.length) + " arrivals, checksum " +
              Hex16(stored.fnv));
    } else {
      s.trace = shared.events;
      s.trace_generated = true;
      s.trace_fnv = shared.fnv;
    }
  } else if (io.ok() && stored.generated) {
    s.MaterializeTrace(std::nullopt);
    if (s.trace->size() != stored.length || s.TraceFnv() != stored.fnv) {
      io.Fail("snapshot's elided arrival trace cannot be regenerated: the "
              "generator produced " +
              std::to_string(s.trace->size()) + " arrivals, snapshot recorded " +
              std::to_string(stored.length) + " (checksum " +
              (s.TraceFnv() == stored.fnv ? "matches" : "differs") + ")");
    }
  } else if (io.ok()) {
    const std::string invalid = ValidateTrace(stored.inlined);
    if (!invalid.empty()) {
      io.Fail("snapshot's inlined arrival trace is invalid: " + invalid);
    } else {
      s.MaterializeTrace(std::move(stored.inlined));
      if (s.TraceFnv() != stored.fnv) {
        io.Fail("snapshot's inlined arrival trace fails its checksum");
      }
    }
  }

  Transfer(io, s.clock);
  std::vector<QueueEntry> queue;
  Transfer(io, queue);
  if (io.ok()) {
    s.RestoreQueue(io, std::move(queue));
  }
  ManagerImage manager;
  Transfer(io, manager);
  if (io.ok()) {
    s.RestoreManager(io, std::move(manager));
  }
  std::optional<FaultInjector::State> injector;
  Transfer(io, injector);
  if (io.ok() && injector.has_value() != (s.injector != nullptr)) {
    io.Fail("snapshot fault-injector presence does not match its fault plan");
  }
  if (io.ok() && injector.has_value()) {
    const Result<bool> imported = s.injector->ImportState(*injector);
    if (!imported.ok()) {
      io.Fail(imported.error());
    }
  }
  Transfer(io, s.predictor);
  TelemetrySection<std::vector<TraceEventRecord>> telemetry;
  Transfer(io, telemetry);
  if (io.ok()) {
    // Wholesale value overwrite: erases the junk telemetry the adoption path
    // emitted above and reinstates every counter/gauge/distribution/series
    // exactly. Rejects a registry whose layout differs from the snapshot
    // (e.g. a RestoreOptions::telemetry context that was not fresh).
    const Result<bool> imported = s.telemetry->metrics().ImportState(telemetry.metrics);
    if (!imported.ok()) {
      io.Fail(imported.error());
    }
  }
  if (io.ok()) {
    s.telemetry->trace().set_enabled(telemetry.trace_enabled);
    s.telemetry->trace().RestoreEvents(std::move(telemetry.records));
  }

  if (io.ok() && options.slo.active) {
    s.ApplySloOverride(io, options.slo);
  }
  if (!io.ok()) {
    return Error{io.error()};
  }
  if (!reader.AtEnd()) {
    return Error{"snapshot has " + std::to_string(reader.Remaining()) +
                 " unexpected trailing payload bytes"};
  }
  return SimSession(std::move(state));
}

}  // namespace defl

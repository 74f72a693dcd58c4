// Two-way snapshot codec for SimSession (format: DESIGN.md §11). Each
// section of a snapshot is spelled once: one Transfer(io, x) template lists
// its fields in format order and serves both directions. SnapshotEncoder
// writes through a SnapshotWriter and SnapshotDecoder reads through a
// SnapshotReader, with the same typed calls. Transfer takes the value by
// reference (const allowed when encoding), so decoding fills it in place and
// encoding reads it without a copy; the trace and telemetry sections encode
// through views of the live session.
//
// The decoder trusts no byte: a count is bounded by the payload left (so a
// crafted count cannot drive a huge loop or allocation), every enum byte is
// range-checked, and the first failure names the sections it happened in.
// A new field is one line in one Transfer plus a kSnapshotFormatVersion bump.
#ifndef SRC_CLUSTER_SESSION_CODEC_H_
#define SRC_CLUSTER_SESSION_CODEC_H_

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/cluster/cluster_sim.h"
#include "src/cluster/predictor.h"
#include "src/faults/fault_injector.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/event_trace.h"
#include "src/telemetry/metrics.h"

namespace defl {

// The session's typed, serializable event queue. The closure-based Simulator
// cannot checkpoint (std::function is opaque), so the session replays the
// cluster simulation through seven reconstructible event kinds; `payload`
// indexes into state the snapshot carries (the fault timeline, the
// materialized trace) or names a server/VM directly.
enum class SimEventKind : uint8_t {
  kFaultEvent = 0,     // payload: index into the fault timeline
  kMarkHealthy = 1,    // payload: server id (recovery probation expired)
  kVmArrival = 2,      // payload: trace index == VmId
  kVmCompletion = 3,   // payload: VmId (no-op if already preempted)
  kSampleTick = 4,     // payload unused; self-reschedules
  kReinflateTick = 5,  // payload unused; self-reschedules
  kSloTick = 6,        // payload unused; self-reschedules (interactive only)
};

struct QueueEntry {
  double when = 0.0;
  int64_t seq = 0;
  SimEventKind kind = SimEventKind::kSampleTick;
  int64_t payload = 0;
};

// The virtual clock and the two event counters it advances with.
struct SessionClock {
  double now = 0.0;
  int64_t next_seq = 0;
  int64_t events_executed = 0;
};

// One hosted VM: its spec plus the deflation state the restore reinstates
// directly, without replaying a cascade.
struct HostedVmImage {
  VmId id = 0;
  VmSpec spec;
  ResourceVector hv_reclaimed;
  ResourceVector unplugged;
  double balloon_mb = 0.0;
  double app_used_mb = 0.0;
  double page_cache_mb = 0.0;
  int64_t pinned_cpus = 0;
};

// The cluster manager's state: its RNG words, each server's health, the
// preemptions not yet reported, and every hosted VM in (server, hosting)
// order.
struct ManagerImage {
  std::array<uint64_t, 4> rng = {};
  std::vector<ServerHealth> health;
  std::vector<VmId> preempted;
  std::vector<std::vector<HostedVmImage>> servers;
};

// The arrival-trace section. A generated trace is stored as its length and
// checksum only, since the config regenerates it; an explicit trace is
// inlined in full. Encoding views the session's trace (`Events` is a span),
// decoding returns what the snapshot stores (a StoredTrace) and leaves
// building and verifying the trace to the session.
template <typename Events>
struct TraceSection {
  bool generated = false;
  uint64_t length = 0;
  uint64_t fnv = 0;
  Events inlined;  // the events, when !generated
};
using StoredTrace = TraceSection<std::vector<TraceEvent>>;

// The telemetry section: whether the event trace records, the metrics
// registry's values, and the recorded events (a TraceEventView when
// encoding, a vector when decoding).
template <typename Records>
struct TelemetrySection {
  bool trace_enabled = false;
  MetricsRegistry::State metrics;
  Records records;
};

class SnapshotEncoder {
 public:
  static constexpr bool kDecoding = false;

  explicit SnapshotEncoder(SnapshotWriter& writer) : writer_(writer) {}

  // Sections only name decode failures.
  struct [[maybe_unused]] Scope {};
  Scope Section(const char* /*name*/) { return {}; }

  void U8(uint8_t v) { writer_.WriteU8(v); }
  void U64(uint64_t v) { writer_.WriteU64(v); }
  void I64(int64_t v) { writer_.WriteI64(v); }
  void F64(double v) { writer_.WriteF64(v); }
  void Bool(bool v) { writer_.WriteBool(v); }
  void String(const std::string& v) { writer_.WriteString(v); }
  template <typename E>
  void Enum(E v, E /*last*/, const char* /*what*/) {
    writer_.WriteU8(static_cast<uint8_t>(v));
  }
  void Count(uint64_t n, size_t /*min_entry_bytes*/, const char* /*what*/) {
    writer_.WriteU64(n);
  }

 private:
  SnapshotWriter& writer_;
};

class SnapshotDecoder {
 public:
  static constexpr bool kDecoding = true;

  explicit SnapshotDecoder(SnapshotReader& reader) : reader_(reader) {}

  bool ok() const { return reader_.ok(); }
  void Fail(const std::string& message) { reader_.Fail(message); }
  // The first failure, followed by the sections open when it happened.
  std::string error() const;

  // Names the section read while it lives.
  class [[nodiscard]] Scope {
   public:
    Scope(SnapshotDecoder* decoder, const char* name)
        : decoder_(decoder), armed_(decoder->ok()) {
      decoder_->open_.push_back(name);
    }
    ~Scope() {
      if (armed_ && !decoder_->ok()) {
        decoder_->NoteFailedSections();
      }
      decoder_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SnapshotDecoder* decoder_;
    bool armed_;  // the payload was intact on entry
  };
  Scope Section(const char* name) { return Scope(this, name); }

  void U8(uint8_t& v) { v = reader_.ReadU8(); }
  void U64(uint64_t& v) { v = reader_.ReadU64(); }
  template <std::integral Int>
  void I64(Int& v) {
    v = static_cast<Int>(reader_.ReadI64());
  }
  void F64(double& v) { v = reader_.ReadF64(); }
  void Bool(bool& v) { v = reader_.ReadBool(); }
  void String(std::string& v) { v = reader_.ReadString(); }
  // An enum stored as one byte; bytes past `last` fail, naming `what`.
  template <typename E>
  void Enum(E& v, E last, const char* what) {
    const uint8_t byte = reader_.ReadU8();
    if (byte > static_cast<uint8_t>(last)) {
      reader_.Fail(std::string("snapshot ") + what + " byte " + std::to_string(byte) +
                   " is out of range");
      return;
    }
    v = static_cast<E>(byte);
  }
  // A length prefix, bounded so that `n` entries of at least
  // `min_entry_bytes` each fit in the payload left; 0 means unbounded.
  void Count(uint64_t& n, size_t min_entry_bytes, const char* what);

 private:
  // Records the sections open at the first failure.
  void NoteFailedSections();

  SnapshotReader& reader_;
  std::vector<const char*> open_;
  std::string failed_in_;
};

// T is `Value` or `const Value`: the decoder's and the encoder's view.
template <typename T, typename Value>
concept Is = std::same_as<std::remove_const_t<T>, Value>;

// A count-prefixed sequence. Encoding takes any sized range; decoding
// refills a vector, reading no further once the payload fails.
template <typename IO, typename Seq, typename Each>
void TransferEach(IO& io, Seq& seq, size_t min_entry_bytes, const char* what,
                  Each each) {
  uint64_t n = seq.size();
  io.Count(n, min_entry_bytes, what);
  if constexpr (IO::kDecoding) {
    seq.clear();
    seq.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; io.ok() && i < n; ++i) {
      each(seq.emplace_back());
    }
  } else {
    for (const auto& element : seq) {
      each(element);
    }
  }
}

template <typename IO, typename Seq>
void TransferEach(IO& io, Seq& seq, size_t min_entry_bytes, const char* what) {
  TransferEach(io, seq, min_entry_bytes, what, [&io](auto& e) { Transfer(io, e); });
}

template <typename IO, Is<ResourceVector> T>
void Transfer(IO& io, T& v) {
  const auto scope = io.Section("resource vector");
  for (const ResourceKind kind : kAllResources) {
    io.F64(v[kind]);
  }
}

template <typename IO, Is<VmSpec> T>
void Transfer(IO& io, T& spec) {
  const auto scope = io.Section("VM spec");
  io.String(spec.name);
  Transfer(io, spec.size);
  io.Enum(spec.priority, VmPriority::kLow, "VM priority");
  Transfer(io, spec.min_size);
}

template <typename IO, Is<TraceEvent> T>
void Transfer(IO& io, T& event) {
  const auto scope = io.Section("trace event");
  io.F64(event.arrival_s);
  io.F64(event.lifetime_s);
  Transfer(io, event.spec);
}

template <typename IO, Is<ClusterSimConfig> T>
void Transfer(IO& io, T& config) {
  const auto scope = io.Section("config");
  io.I64(config.num_servers);
  Transfer(io, config.server_capacity);
  auto& t = config.trace;
  io.F64(t.duration_s);
  io.F64(t.arrival_rate_per_s);
  io.F64(t.lifetime_alpha);
  io.F64(t.min_lifetime_s);
  io.F64(t.max_lifetime_s);
  io.F64(t.low_priority_fraction);
  io.U64(t.seed);
  TransferEach(io, t.catalog, 8 * 7, "catalog", [&io](auto& entry) {
    io.String(entry.app);
    Transfer(io, entry.size);
    io.F64(entry.min_fraction);
    io.F64(entry.weight);
  });
  auto& c = config.cluster;
  io.Enum(c.placement, PlacementPolicy::kTwoChoices, "placement policy");
  io.Enum(c.strategy, ReclamationStrategy::kPreemptionOnly, "reclamation strategy");
  auto& lc = c.controller;
  io.Enum(lc.mode, DeflationMode::kBalloonLevel, "deflation mode");
  io.F64(lc.latency.swap_out_mbps);
  io.F64(lc.latency.control_loop_overhead);
  io.F64(lc.latency.unplug_cold_mbps);
  io.F64(lc.latency.unplug_freed_mbps);
  io.F64(lc.latency.app_free_mbps);
  io.F64(lc.latency.app_fixed_s);
  io.F64(lc.latency.cpu_unplug_s);
  io.F64(lc.latency.balloon_mbps);
  io.F64(lc.latency.fixed_s);
  io.F64(lc.alpha);
  io.Enum(lc.split, DeflationSplit::kEqual, "deflation split");
  io.F64(lc.deflation_deadline_s);
  io.F64(lc.guard.rpc_timeout_s);
  io.I64(lc.guard.max_attempts);
  io.F64(lc.guard.backoff_base_s);
  io.F64(lc.guard.backoff_cap_s);
  io.I64(lc.guard.breaker_threshold);
  io.U64(c.seed);
  io.I64(c.threads);  // unused slot, kept so the format is unchanged
  io.F64(config.sample_period_s);
  io.F64(config.reinflate_period_s);
  io.Bool(config.predictive_holdback);
  io.F64(config.predictor_alpha);
  io.U64(config.fault_plan.seed);
  TransferEach(io, config.fault_plan.rules, 1 + 8 * 7, "fault rule", [&io](auto& rule) {
    io.Enum(rule.kind, static_cast<FaultKind>(kNumFaultKinds - 1), "fault kind");
    io.I64(rule.vm);
    io.I64(rule.server);
    io.F64(rule.probability);
    io.F64(rule.magnitude);
    io.F64(rule.start_s);
    io.F64(rule.end_s);
    io.I64(rule.max_count);
  });
  io.F64(config.recovery_grace_s);
  // Format v2: the diurnal/bursty arrival generator parameters.
  auto& a = config.arrivals;
  io.Bool(a.enabled);
  io.F64(a.diurnal_amplitude);
  io.F64(a.diurnal_period_s);
  io.F64(a.diurnal_phase_s);
  io.F64(a.burst_rate_per_s);
  io.F64(a.burst_duration_s);
  io.F64(a.burst_multiplier);
  io.U64(a.seed);
  // Format v4: the interactive-serving workload mix + SLO controller.
  auto& i = config.interactive;
  io.Bool(i.enabled);
  io.F64(i.fraction);
  io.U64(i.seed);
  io.F64(i.slo_p99_ms);
  io.Bool(i.slo_aware);
  io.F64(i.control_period_s);
  io.F64(i.rate_rps_per_cpu);
  io.F64(i.rate_amplitude);
  io.F64(i.rate_period_s);
  io.F64(i.latency.base_service_us);
  io.F64(i.latency.knee_fraction);
  io.F64(i.latency.graceful_slope);
  io.F64(i.latency.cliff_power);
  io.F64(i.latency.cliff_scale);
  io.F64(i.latency.max_utilization);
}

template <typename IO, typename Events>
void Transfer(IO& io, TraceSection<Events>& trace) {
  const auto scope = io.Section("arrival trace");
  io.Bool(trace.generated);
  io.Count(trace.length, trace.generated ? 0 : 8 * 2, "trace event");
  io.U64(trace.fnv);
  if constexpr (IO::kDecoding) {
    trace.inlined.resize(trace.generated ? 0 : static_cast<size_t>(trace.length));
  }
  if (trace.generated) {
    return;
  }
  for (auto& event : trace.inlined) {
    Transfer(io, event);
  }
}

template <typename IO, Is<SessionClock> T>
void Transfer(IO& io, T& clock) {
  const auto scope = io.Section("clock");
  io.F64(clock.now);
  io.I64(clock.next_seq);
  io.I64(clock.events_executed);
}

template <typename IO, Is<QueueEntry> T>
void Transfer(IO& io, T& entry) {
  const auto scope = io.Section("queue entry");
  io.F64(entry.when);
  io.I64(entry.seq);
  io.Enum(entry.kind, SimEventKind::kSloTick, "queue entry kind");
  io.I64(entry.payload);
}

template <typename IO, Is<std::vector<QueueEntry>> T>
void Transfer(IO& io, T& queue) {
  const auto scope = io.Section("event queue");
  TransferEach(io, queue, 8 * 3 + 1, "queue entry");
}

template <typename IO, Is<HostedVmImage> T>
void Transfer(IO& io, T& vm) {
  const auto scope = io.Section("hosted VM");
  io.I64(vm.id);
  Transfer(io, vm.spec);
  Transfer(io, vm.hv_reclaimed);
  Transfer(io, vm.unplugged);
  io.F64(vm.balloon_mb);
  io.F64(vm.app_used_mb);
  io.F64(vm.page_cache_mb);
  io.I64(vm.pinned_cpus);
}

template <typename IO, Is<ManagerImage> T>
void Transfer(IO& io, T& manager) {
  const auto scope = io.Section("manager");
  for (auto& word : manager.rng) {
    io.U64(word);
  }
  TransferEach(io, manager.health, 1, "server health", [&io](auto& health) {
    io.Enum(health, ServerHealth::kRecovering, "server health");
  });
  TransferEach(io, manager.preempted, 8, "pending preemption",
               [&io](auto& id) { io.I64(id); });
  TransferEach(io, manager.servers, 8, "server",
               [&io](auto& vms) { TransferEach(io, vms, 8, "hosted VM"); });
}

// Present only when the run has a fault plan.
template <typename IO, Is<std::optional<FaultInjector::State>> T>
void Transfer(IO& io, T& injector) {
  const auto scope = io.Section("fault injector");
  bool present = injector.has_value();
  io.Bool(present);
  if constexpr (IO::kDecoding) {
    injector.reset();
    if (present) {
      injector.emplace();
    }
  }
  if (!present) {
    return;
  }
  auto& state = *injector;
  TransferEach(io, state.site_draws, 1 + 8 * 3, "fault site", [&io](auto& site) {
    auto& [kind, vm, server, draws] = site;
    io.U8(kind);
    io.I64(vm);
    io.I64(server);
    io.U64(draws);
  });
  TransferEach(io, state.rule_fires, 8, "rule fire", [&io](auto& fires) { io.I64(fires); });
  for (auto& count : state.injected) {
    io.I64(count);
  }
}

template <typename IO, Is<EwmaPredictor> T>
void Transfer(IO& io, T& predictor) {
  const auto scope = io.Section("predictor");
  bool initialized = predictor.initialized();
  double mean = predictor.mean();
  double variance = predictor.variance();
  io.Bool(initialized);
  io.F64(mean);
  io.F64(variance);
  if constexpr (IO::kDecoding) {
    predictor.RestoreState(initialized, mean, variance);
  }
}

template <typename IO, Is<MetricsRegistry::State> T>
void Transfer(IO& io, T& metrics) {
  const auto scope = io.Section("metrics");
  TransferEach(io, metrics.counters, 8 * 2, "counter", [&io](auto& counter) {
    io.String(counter.first);
    io.I64(counter.second);
  });
  TransferEach(io, metrics.gauges, 8 * 2, "gauge", [&io](auto& gauge) {
    io.String(gauge.first);
    io.F64(gauge.second);
  });
  TransferEach(io, metrics.distributions, 8 * 7 + 1, "distribution", [&io](auto& d) {
    io.String(d.name);
    io.I64(d.count);
    io.F64(d.mean);
    io.F64(d.m2);
    io.F64(d.min);
    io.F64(d.max);
    io.F64(d.sum);
    io.Bool(d.has_histogram);
    if (d.has_histogram) {
      TransferEach(io, d.hist_counts, 8, "histogram bin",
                   [&io](auto& count) { io.I64(count); });
      io.I64(d.hist_total);
      io.I64(d.hist_dropped);
    }
  });
  TransferEach(io, metrics.series, 8 * 2, "series", [&io](auto& series) {
    io.String(series.first);
    TransferEach(io, series.second, 8 * 2, "series point", [&io](auto& point) {
      io.F64(point.time);
      io.F64(point.value);
    });
  });
}

template <typename IO, Is<TraceEventRecord> T>
void Transfer(IO& io, T& record) {
  const auto scope = io.Section("trace record");
  io.F64(record.time);
  io.Enum(record.kind, TraceEventKind::kServerRecover, "trace record kind");
  io.Enum(record.layer, CascadeLayer::kHypervisor, "trace record layer");
  io.I64(record.vm);
  io.I64(record.server);
  Transfer(io, record.target);
  Transfer(io, record.reclaimed);
  io.I64(record.outcome);
}

template <typename IO, typename Records>
void Transfer(IO& io, TelemetrySection<Records>& telemetry) {
  const auto scope = io.Section("telemetry");
  io.Bool(telemetry.trace_enabled);
  Transfer(io, telemetry.metrics);
  TransferEach(io, telemetry.records, 8 * 12 + 2, "trace record");
}

// FNV-1a-64 over the trace's encoded events, sealed like a snapshot. Stored
// with an elided trace so a restore can prove the regenerated arrivals are
// the ones the run used. Streamed: no trace-sized string is built.
uint64_t TraceChecksum(const std::vector<TraceEvent>& trace);

}  // namespace defl

#endif  // SRC_CLUSTER_SESSION_CODEC_H_

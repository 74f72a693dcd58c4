// EventTrace: a structured, machine-consumable record of every deflation
// decision the system takes. Each record is one fixed-size POD entry
// {time, kind, layer, vm, server, target_vector, reclaimed_vector, outcome},
// appended in O(1); recording can be disabled entirely (one branch per call)
// for hot-path benchmarking. The trace replaces grepping DEFL_LOG output:
// the per-VM allocation timelines, deflation latency distributions and
// deflation-tolerance analyses of the evaluation all read from it.
//
// Storage is chunked (DESIGN.md §14): records append into fixed-size chunks
// the trace owns, so a multi-million-record cloud run never pays
// vector-doubling copies, and Clear() frees the chunks. Records are
// addressed through TraceEventView (indexable, iterable); they are not one
// contiguous array.
//
// Event kinds and the meaning of the vector/outcome fields are documented in
// DESIGN.md ("Telemetry & tracing").
#ifndef SRC_TELEMETRY_EVENT_TRACE_H_
#define SRC_TELEMETRY_EVENT_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "src/resources/resource_vector.h"

namespace defl {

enum class TraceEventKind : uint8_t {
  kCascadeStage,   // one layer of one cascade deflation (layer set)
  kDeflation,      // a whole cascade Deflate() call (requested vs reclaimed)
  kReinflation,    // reverse cascade (requested vs returned)
  kPlacement,      // a VM was placed on a server
  kRejection,      // an arrival could not be placed
  kVmLaunch,       // a VM started running on a server
  kVmRemove,       // a VM left a server (any reason)
  kVmComplete,     // normal completion, recorded by the cluster manager
  kPreemption,     // a low-priority VM was revoked
  kOvercommitEnter,  // server's nominal demand crossed above capacity
  kOvercommitExit,   // ...and back below
  kSparkPolicy,    // a Section 4.1 policy decision
  kTaskKill,       // a Spark task was killed (self-deflation / preemption)
  kRollback,       // a synchronous Spark job rolled back to its checkpoint
  kFaultInjected,  // the FaultInjector fired a fault (outcome = FaultKind)
  kAgentTimeout,   // an agent RPC attempt timed out
  kBreakerTrip,    // consecutive timeouts opened a VM's circuit breaker
  kBreakerReset,   // a footprint probe succeeded; the breaker closed
  kServerCrash,    // a whole server went down; its VMs were lost
  kServerDegrade,  // a server was excluded from new placements
  kServerRecover,  // a crashed/degraded server came back
};

// The cascade layer an event belongs to, kNone for non-cascade events.
enum class CascadeLayer : uint8_t {
  kNone,
  kApplication,
  kGuestOs,
  kBalloon,
  kHypervisor,
};

const char* TraceEventKindName(TraceEventKind kind);
const char* CascadeLayerName(CascadeLayer layer);

struct TraceEventRecord {
  double time = 0.0;
  TraceEventKind kind = TraceEventKind::kDeflation;
  CascadeLayer layer = CascadeLayer::kNone;
  int64_t vm = -1;      // VmId, -1 when not VM-scoped
  int64_t server = -1;  // ServerId, -1 when not server-scoped
  ResourceVector target;
  ResourceVector reclaimed;
  // Kind-specific code: success flag, placement pass, policy choice, stage id.
  int32_t outcome = 0;
};

// Lightweight random-access view over the trace's chunked record storage.
// Valid until the trace is mutated (append, Clear, RestoreEvents) -- the
// same contract the old contiguous-vector reference had.
class TraceEventView {
 public:
  static constexpr size_t kChunkRecords = 512;
  using Chunks = std::vector<std::unique_ptr<TraceEventRecord[]>>;

  TraceEventView(const Chunks* chunks, size_t size) : chunks_(chunks), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const TraceEventRecord& operator[](size_t i) const {
    return (*chunks_)[i / kChunkRecords][i % kChunkRecords];
  }

  class Iterator {
   public:
    Iterator(const Chunks* chunks, size_t index) : chunks_(chunks), index_(index) {}
    const TraceEventRecord& operator*() const {
      return (*chunks_)[index_ / kChunkRecords][index_ % kChunkRecords];
    }
    const TraceEventRecord* operator->() const { return &**this; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return index_ == other.index_; }
    bool operator!=(const Iterator& other) const { return index_ != other.index_; }

   private:
    const Chunks* chunks_;
    size_t index_;
  };

  Iterator begin() const { return Iterator(chunks_, 0); }
  Iterator end() const { return Iterator(chunks_, size_); }

 private:
  const Chunks* chunks_;
  size_t size_;
};

class EventTrace {
 public:
  EventTrace() = default;
  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  // The clock stamps records with the current simulated time; producers that
  // run outside a simulator leave it unset (records stamp 0, or use RecordAt).
  void SetClock(std::function<double()> clock) { clock_ = std::move(clock); }
  void ClearClock() { clock_ = nullptr; }
  double Now() const { return clock_ ? clock_() : 0.0; }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // O(1) append; a disabled trace costs one branch.
  void Record(TraceEventKind kind, CascadeLayer layer, int64_t vm, int64_t server,
              const ResourceVector& target, const ResourceVector& reclaimed,
              int32_t outcome) {
    if (!enabled_) {
      return;
    }
    RecordAt(Now(), kind, layer, vm, server, target, reclaimed, outcome);
  }
  void RecordAt(double time, TraceEventKind kind, CascadeLayer layer, int64_t vm,
                int64_t server, const ResourceVector& target,
                const ResourceVector& reclaimed, int32_t outcome) {
    if (!enabled_) {
      return;
    }
    Append() =
        TraceEventRecord{time, kind, layer, vm, server, target, reclaimed, outcome};
  }

  TraceEventView events() const { return TraceEventView(&chunks_, size_); }
  size_t size() const { return size_; }

  // Drops every record and frees the chunks.
  void Clear() {
    chunks_.clear();
    size_ = 0;
  }

  // Replaces the recorded events wholesale: deterministic checkpoint/restore
  // (SimSession snapshots) rebuilds the trace exactly as the snapshotting run
  // left it, discarding whatever the restore machinery itself recorded.
  // Bypasses the enabled flag, as the wholesale assignment it replaces did.
  void RestoreEvents(const std::vector<TraceEventRecord>& events) {
    Clear();
    for (const TraceEventRecord& event : events) {
      Append() = event;
    }
  }

  // Counts events of one kind (convenience for tests and benches),
  // optionally restricted to one cascade layer.
  int64_t CountKind(TraceEventKind kind) const;
  int64_t CountKind(TraceEventKind kind, CascadeLayer layer) const;

  // One JSON object per line; deterministic (identical runs dump
  // byte-identical output).
  void DumpJsonl(std::ostream& os) const;

 private:
  // Reserves the next record slot, opening a fresh chunk when the current
  // one is full. Chunk addresses are stable until Clear().
  TraceEventRecord& Append() {
    const size_t offset = size_ % TraceEventView::kChunkRecords;
    if (offset == 0) {
      chunks_.push_back(
          std::make_unique<TraceEventRecord[]>(TraceEventView::kChunkRecords));
    }
    return chunks_[size_++ / TraceEventView::kChunkRecords][offset];
  }

  bool enabled_ = true;
  std::function<double()> clock_;
  TraceEventView::Chunks chunks_;
  size_t size_ = 0;
};

}  // namespace defl

#endif  // SRC_TELEMETRY_EVENT_TRACE_H_

// SimSession: the steppable public surface of the cluster simulation.
// Where RunClusterSim() replays a whole trace in one opaque call, a session
// lets an external driver interleave with the simulation -- advance to a
// chosen time, inspect live cluster state, checkpoint to disk, and resume a
// killed run days later:
//
//   Result<SimSession> session = SimSession::Open(config);
//   session.value().StepUntil(12 * 3600.0);
//   session.value().Snapshot("run.snap");       // kill-safe checkpoint
//   ...
//   Result<SimSession> resumed = SimSession::Restore("run.snap");
//   ClusterSimResult result = resumed.value().Finish();
//
// Determinism contract (DESIGN.md §11): a snapshot captures the *complete*
// simulation state -- virtual clock, pending event queue, RNG streams,
// fault-injector cursors, per-VM deflation state, telemetry registry and
// event trace -- so kill + Restore at any step boundary produces output
// byte-identical to the uninterrupted run. RunClusterSim() is a thin
// wrapper over this class: Open + Finish.
//
// A restore is two steps. Decode turns the bytes into an immutable Image
// and runs every check the bytes alone decide; Build turns an Image plus
// RestoreOptions into a session and checks only what depends on the
// options or the telemetry context. RestoreView is Decode + Build; the
// what-if service decodes once and builds every child from the one Image.
#ifndef SRC_CLUSTER_SIM_SESSION_H_
#define SRC_CLUSTER_SIM_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster_sim.h"
#include "src/common/result.h"

namespace defl {

// Read-only live views returned by SimSession::Inspect().
struct SimServerView {
  ServerId id = -1;
  ServerHealth health = ServerHealth::kHealthy;
  int64_t vm_count = 0;
  ResourceVector allocated;
  ResourceVector free;
  double nominal_overcommitment = 0.0;
};

struct SimInspectView {
  double now_s = 0.0;
  double duration_s = 0.0;
  int64_t events_executed = 0;
  // Events not yet run, past the horizon included: the queued ones plus
  // the trace arrivals the session has not reached.
  int64_t pending_events = 0;
  int64_t hosted_vms = 0;
  double utilization = 0.0;
  double overcommitment = 0.0;
  ClusterCounters counters;
  std::vector<SimServerView> servers;
};

class SimSession {
 public:
  // A config-generated arrival trace and its TraceChecksum, held read-only
  // so any number of sessions -- on any threads -- can share one copy.
  struct SharedTrace {
    std::shared_ptr<const std::vector<TraceEvent>> events;
    uint64_t fnv = 0;
  };

  // A decoded snapshot (Decode). Opaque (defined in sim_session.cc) and
  // never written once Decode returns, so any number of sessions -- on any
  // threads -- can Build off one. Sessions built from it share its arrival
  // trace read-only.
  struct Image;

  struct RestoreOptions {
    // Publish into this context instead of a session-private one. It must be
    // freshly constructed (no metrics registered): Restore rebuilds the
    // snapshot's registry layout inside it and rejects any mismatch.
    TelemetryContext* telemetry = nullptr;
    // >= 0 overrides the snapshotted placement policy (a PlacementPolicy
    // cast to int). The restored fleet state is untouched -- only future
    // placement decisions change. This is the sweep orchestrator's policy
    // axis (DESIGN.md §15); out-of-range values fail the restore.
    int placement = -1;
    // Interactive-serving override (the `slo` what-if query, DESIGN.md §16):
    // enables the SLO controller on the restored child -- or adjusts an
    // already-interactive run -- without disturbing restored fleet state.
    // Negative fields keep the snapshotted value. Overriding `fraction`, or
    // enabling a plain generated run, re-tags a private regenerated trace
    // (the Image's is never written); `fraction` fails on explicit-trace
    // snapshots (there is no generator to rerun).
    struct SloOverride {
      bool active = false;
      double slo_p99_ms = -1.0;
      double fraction = -1.0;
      int policy = -1;  // 0 = uniform baseline, 1 = slo-aware
      double control_period_s = -1.0;
    };
    SloOverride slo;
  };

  // Builds the session and schedules the whole run (fault timeline,
  // sampling and reinflation ticks) without executing anything: the clock
  // is at 0 until the first Step*. Arrivals are not queued: the session
  // reads them from its sorted trace as the clock reaches them, and it
  // checksums the trace only when something first reads the checksum
  // (SnapshotBytes, generated_trace), so Open costs the trace's generation
  // or validation and nothing more per arrival. Fails on an invalid config,
  // including an explicit trace that breaks TraceEventError's rules (the
  // error names the first bad event).
  static Result<SimSession> Open(const ClusterSimConfig& config);

  // Rebuilds a session from Snapshot() output. Corrupted, truncated, or
  // version-skewed snapshots fail with a descriptive error, never a crash.
  static Result<SimSession> Restore(const std::string& path,
                                    const RestoreOptions& options);
  // Rebuilds a session from a durable run directory (DESIGN.md §13): loads
  // the newest valid checkpoint snapshot and re-applies the write-ahead
  // journal's command suffix, yielding the state an uninterrupted run would
  // hold -- no matter where (even mid-checkpoint or mid-WAL-append) the
  // writing process was SIGKILLed. Read-only: the directory is not touched;
  // use DurableSession to continue the run. Defined in durable_session.cc.
  static Result<SimSession> Recover(const std::string& dir,
                                    const RestoreOptions& options);
  static Result<SimSession> Recover(const std::string& dir) {
    return Recover(dir, RestoreOptions());
  }
  static Result<SimSession> Restore(const std::string& path) {
    return Restore(path, RestoreOptions());
  }
  // Rebuilds a session from SnapshotBytes() output: Decode, then Build. The
  // bytes are only read during the call and never written.
  static Result<SimSession> RestoreView(std::string_view bytes,
                                        const RestoreOptions& options);
  // The first half of a restore: checks the framing and the integrity
  // footer, reads every section, and runs every check that depends on the
  // bytes alone -- the config, the trace (regenerated against its stored
  // length and checksum, or an inlined one against the trace rules and its
  // checksum), the queue payloads, the health and server counts, the fault
  // injector's presence, and no trailing bytes. It takes every snapshot of
  // a run Open accepted; the what-if service bounds each child's cadences
  // over the hours it runs (WhatIfService::CheckRunCadences).
  static Result<std::shared_ptr<const Image>> Decode(std::string_view bytes);
  // The second half: a session from a decoded image, reading no bytes. It
  // fails only on the placement and slo overrides and on the registry and
  // fault-injector imports (e.g. a RestoreOptions::telemetry context that
  // was not fresh). The session copies the live state -- hosted VMs, queue,
  // registry -- and shares the image's trace, so the image may be dropped
  // once Build returns.
  static Result<SimSession> Build(const Image& image, const RestoreOptions& options);

  SimSession(SimSession&&) noexcept;
  SimSession& operator=(SimSession&&) noexcept;
  ~SimSession();

  double now() const;
  double duration_s() const;
  int64_t events_executed() const;
  // True when no pending event is due within the simulated horizon.
  bool done() const;

  // Executes every event due at or before min(t, duration) and advances the
  // clock to that time (matching Simulator::Run boundary semantics).
  void StepUntil(double t);
  // Executes up to `max_events` due events, advancing the clock only as far
  // as the last one executed. Returns how many ran.
  int64_t StepEvents(int64_t max_events);

  SimInspectView Inspect() const;

  // Serializes the complete deterministic state (format: DESIGN.md §11).
  // Snapshot() writes atomically (temp file + rename).
  std::string SnapshotBytes() const;
  Result<bool> Snapshot(const std::string& path) const;

  // Runs the remainder of the simulation and derives the result from the
  // telemetry registry, exactly as RunClusterSim always has.
  ClusterSimResult Finish();

  // The telemetry context the run publishes through (session-owned unless a
  // sink was supplied via ClusterSimConfig::telemetry / RestoreOptions).
  TelemetryContext& telemetry();
  // The run's config. Its explicit_trace is empty: the session moved the
  // events into its own trace.
  const ClusterSimConfig& config() const;
  // The session's trace when its config generated it; events is null for
  // an explicit trace. The first call may checksum the trace; like every
  // call on one session, it must not race with another.
  SharedTrace generated_trace() const;
  // Deep access for tests and embedders; treat as read-only between steps.
  ClusterManager& manager();

  // Opaque implementation state (defined in sim_session.cc; public only so
  // the build helpers there can construct it).
  struct State;

 private:
  explicit SimSession(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_SIM_SESSION_H_

// DurableSession: a SimSession that survives SIGKILL. Wraps the steppable
// session with the durability layer of DESIGN.md §13 -- every externally
// injected command is appended to a checksummed write-ahead journal
// (`wal.log`) and fsynced BEFORE it executes, and the full simulation state
// is checkpointed atomically (`ckpt-<id>.snap`, tmp + fsync + rename) at a
// configurable sim-time cadence with keep-last-K retention. Killing the
// process at ANY instant -- mid-step, mid-WAL-append, between a checkpoint's
// marker and its snapshot, mid-rename -- loses nothing: Recover() loads the
// newest valid checkpoint, re-applies the journaled command suffix, and the
// rebuilt session is byte-identical to an uninterrupted run.
//
//   run directory layout:
//     wal.log           append-only command journal (src/sim/wal_io.h)
//     ckpt-000000.snap  genesis checkpoint (t = 0)
//     ckpt-00000N.snap  newest K checkpoints (older ones retired)
//
//   DurableSession::Options opt{.dir = "run.durable"};
//   auto d = DurableSession::CanRecover(opt.dir)
//                ? DurableSession::Recover(opt)
//                : DurableSession::Create(config, opt);
//   d.value().Finish();   // journals, checkpoints, and completes the run
#ifndef SRC_CLUSTER_DURABLE_SESSION_H_
#define SRC_CLUSTER_DURABLE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "src/cluster/sim_session.h"
#include "src/common/result.h"
#include "src/sim/wal_io.h"

namespace defl {

class DurableSession {
 public:
  struct Options {
    std::string dir;  // run directory (created if missing)
    // Auto-checkpoint every N simulated seconds during StepUntil/Finish.
    // 0 keeps only the genesis and final checkpoints (plus explicit calls).
    double checkpoint_every_s = 3600.0;
    // Keep the newest K checkpoint snapshots; older ones are unlinked once a
    // newer one is durably in place. Minimum 1.
    int keep_checkpoints = 3;
    // Skip a cadence checkpoint when the previous checkpoint landed less
    // than this many WALL-clock seconds ago. Bounds the durability overhead
    // at ~(per-checkpoint cost / interval) no matter how many sim-hours per
    // wall-second the run achieves; a crash then loses at most
    // min(checkpoint_every_s of sim time, this much wall time) of work.
    // 0 disables the gate. Genesis, post-replay, explicit Checkpoint(), and
    // final checkpoints are never skipped.
    double min_checkpoint_wall_s = 0.0;
    // Recover(): publish into this fresh context (SimSession::RestoreOptions
    // semantics). Create() takes the context from ClusterSimConfig.
    TelemetryContext* telemetry = nullptr;
  };

  // True when `dir` holds a recoverable run: a readable WAL header and at
  // least one checkpoint snapshot file. A directory that died before its
  // genesis checkpoint completed is NOT recoverable -- no command was ever
  // acknowledged, so the driver simply starts fresh.
  static bool CanRecover(const std::string& dir);

  // Starts a fresh durable run: writes the WAL header and the genesis
  // checkpoint before returning, so recovery works from the first kill on.
  static Result<DurableSession> Create(const ClusterSimConfig& config,
                                       const Options& options);

  // Rebuilds the run from `dir` and reattaches the journal for appending:
  // newest valid checkpoint + command replay (taking any auto-checkpoints
  // the dead process didn't live to take), torn WAL tail truncated, and the
  // post-replay state checkpointed so every recovery durably advances.
  static Result<DurableSession> Recover(const Options& options);

  // Journals the command (write + fsync), then executes it, cutting
  // auto-checkpoints at every cadence boundary crossed. Returns an error
  // only when the journal or a checkpoint could not be made durable -- the
  // simulation state is still consistent afterwards.
  Result<bool> StepUntil(double t);
  // Journals "run until N total events" (an absolute target, so replay is
  // idempotent), then executes. Returns how many events ran.
  Result<int64_t> StepEvents(int64_t max_events);

  // Cuts a checkpoint now: marker record into the WAL first, then the
  // atomic snapshot write, then retention. A repeat at an unchanged state is
  // a no-op (deduped), so restarts don't accrete identical snapshots.
  Result<bool> Checkpoint();

  // Checkpoints actually skipped by the min_checkpoint_wall_s gate.
  int64_t checkpoints_gated() const { return checkpoints_gated_; }

  // Journals a step to the horizon, runs it (with cadence checkpoints),
  // cuts the final checkpoint, and derives the result.
  Result<ClusterSimResult> Finish();

  SimSession& session() { return session_; }
  const SimSession& session() const { return session_; }
  // Checkpoints this object has written (not counting deduped no-ops).
  int64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  DurableSession(SimSession session, WalWriter wal, Options options);

  // The shared execution path: optionally journals the command, then steps
  // with auto-checkpoints at cadence boundaries. Replay passes journal=false
  // (the command is already in the WAL).
  Result<bool> ApplyStepUntil(double t, bool journal);

  // Cadence-boundary checkpoint, subject to the wall-clock gate; `forced`
  // bypasses it (genesis, post-replay, final, explicit calls).
  Result<bool> CheckpointInternal(bool forced);

  std::string CheckpointPath(uint64_t id) const;

  SimSession session_;
  WalWriter wal_;
  Options options_;
  uint64_t next_checkpoint_id_ = 0;
  // Dedupe key: the (sim time, events) the newest durable snapshot holds.
  double last_ckpt_time_s_ = -1.0;
  int64_t last_ckpt_events_ = -1;
  int64_t checkpoints_written_ = 0;
  int64_t checkpoints_gated_ = 0;
  // Wall-clock instant the last checkpoint (or construction) completed,
  // for the min_checkpoint_wall_s gate.
  std::chrono::steady_clock::time_point last_ckpt_wall_;
};

}  // namespace defl

#endif  // SRC_CLUSTER_DURABLE_SESSION_H_

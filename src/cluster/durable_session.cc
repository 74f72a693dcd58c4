#include "src/cluster/durable_session.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/cadence.h"
#include "src/common/crash_point.h"
#include "src/sim/snapshot_io.h"

namespace defl {
namespace {

namespace fs = std::filesystem;

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

// ckpt-<id>.snap -> id, or -1 for anything else in the directory.
int64_t CheckpointIdFromName(const std::string& name) {
  constexpr const char* kPrefix = "ckpt-";
  constexpr const char* kSuffix = ".snap";
  if (name.size() < 5 + 5 + 1 || name.compare(0, 5, kPrefix) != 0 ||
      name.compare(name.size() - 5, 5, kSuffix) != 0) {
    return -1;
  }
  const std::string digits = name.substr(5, name.size() - 10);
  if (digits.empty()) {
    return -1;
  }
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return -1;
    }
  }
  return static_cast<int64_t>(std::strtoull(digits.c_str(), nullptr, 10));
}

struct CheckpointFile {
  uint64_t id = 0;
  std::string path;
};

// Every ckpt-<id>.snap in `dir`, newest id first.
std::vector<CheckpointFile> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> files;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const int64_t id = CheckpointIdFromName(entry.path().filename().string());
    if (id >= 0) {
      files.push_back(
          CheckpointFile{static_cast<uint64_t>(id), entry.path().string()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.id > b.id;
            });
  return files;
}

// Newest checkpoint marker per id (a WAL can mention an id once only, but a
// truncated-and-rewritten tail is conceivable; last one wins).
std::map<uint64_t, WalRecord> CheckpointMarkers(const WalReadResult& wal) {
  std::map<uint64_t, WalRecord> markers;
  for (const WalRecord& record : wal.records) {
    if (record.kind == WalRecordKind::kCheckpoint) {
      markers[record.checkpoint_id] = record;
    }
  }
  return markers;
}

// Restores the newest checkpoint that decodes and, when its WAL marker
// survived, matches the marker's size and whole-blob digest. Decode checks
// the footer, so the digest continues from it (SealedSnapshotFnv). A
// candidate failing either test is skipped: snapshot writes are atomic, so
// a crash leaves at most a torn or stale file, and Decode touches no
// telemetry, so a skip leaves the caller's context fresh. A candidate that
// decodes but fails Build is not crash damage, and fails the recovery.
Result<SimSession> RestoreNewestCheckpoint(
    const std::string& dir, const WalReadResult& wal,
    const SimSession::RestoreOptions& options) {
  const std::map<uint64_t, WalRecord> markers = CheckpointMarkers(wal);
  std::string skipped;
  for (const CheckpointFile& file : ListCheckpoints(dir)) {
    Result<std::string> bytes = ReadFileToString(file.path);
    if (!bytes.ok()) {
      skipped += "\n  " + file.path + ": " + bytes.error();
      continue;
    }
    const Result<std::shared_ptr<const SimSession::Image>> image =
        SimSession::Decode(bytes.value());
    if (!image.ok()) {
      skipped += "\n  " + file.path + ": " + image.error();
      continue;
    }
    const auto marker = markers.find(file.id);
    if (marker != markers.end() &&
        (marker->second.snapshot_size != bytes.value().size() ||
         marker->second.snapshot_fnv != SealedSnapshotFnv(bytes.value()))) {
      skipped += "\n  " + file.path + ": does not match its WAL marker";
      continue;
    }
    Result<SimSession> session = SimSession::Build(*image.value(), options);
    if (!session.ok()) {
      return Error{"cannot restore " + file.path + ": " + session.error()};
    }
    return session;
  }
  return Error{"no recoverable checkpoint in " + dir +
               (skipped.empty() ? " (no ckpt-*.snap files)" : skipped)};
}

// Re-applies every journaled command. Commands are absolute targets, so the
// records the restored checkpoint already covers no-op. `step_until` runs a
// StepUntil record: the read-only recovery only steps, the durable one also
// cuts the cadence checkpoints the dead process did not live to take.
template <typename StepUntil>
Result<bool> ReplayWal(SimSession& session, const std::vector<WalRecord>& records,
                       StepUntil step_until) {
  for (const WalRecord& record : records) {
    switch (record.kind) {
      case WalRecordKind::kStepUntil: {
        const Result<bool> stepped = step_until(record.t_s);
        if (!stepped.ok()) {
          return stepped;
        }
        break;
      }
      case WalRecordKind::kStepEventsTo: {
        const int64_t diff = record.target_events - session.events_executed();
        if (diff > 0) {
          session.StepEvents(diff);
        }
        break;
      }
      case WalRecordKind::kCheckpoint:
        break;
    }
  }
  return true;
}

// First cadence boundary strictly after `now`.
double NextBoundary(double now, double every_s) {
  double b = (std::floor(now / every_s) + 1.0) * every_s;
  if (b <= now) {
    b += every_s;
  }
  return b;
}

}  // namespace

Result<SimSession> SimSession::Recover(const std::string& dir,
                                       const RestoreOptions& options) {
  Result<WalReadResult> wal = ReadWalFile(WalPath(dir));
  if (!wal.ok()) {
    return Error{"cannot recover " + dir + ": " + wal.error()};
  }
  Result<SimSession> session =
      RestoreNewestCheckpoint(dir, wal.value(), options);
  if (!session.ok()) {
    return Error{"cannot recover " + dir + ": " + session.error()};
  }
  SimSession& replayed = session.value();
  ReplayWal(replayed, wal.value().records, [&replayed](double t) -> Result<bool> {
    replayed.StepUntil(t);
    return true;
  });
  return session;
}

DurableSession::DurableSession(SimSession session, WalWriter wal,
                               Options options)
    : session_(std::move(session)),
      wal_(std::move(wal)),
      options_(std::move(options)) {
  if (options_.keep_checkpoints < 1) {
    options_.keep_checkpoints = 1;
  }
  last_ckpt_wall_ = std::chrono::steady_clock::now();
}

std::string DurableSession::CheckpointPath(uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06llu.snap",
                static_cast<unsigned long long>(id));
  return options_.dir + "/" + name;
}

bool DurableSession::CanRecover(const std::string& dir) {
  const Result<WalReadResult> wal = ReadWalFile(WalPath(dir));
  return wal.ok() && !ListCheckpoints(dir).empty();
}

Result<DurableSession> DurableSession::Create(const ClusterSimConfig& config,
                                              const Options& options) {
  const Result<bool> cadence = CheckCadence(
      "checkpoint cadence", options.checkpoint_every_s, config.trace.duration_s);
  if (!cadence.ok()) {
    return Error{cadence.error()};
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Error{"cannot create durable dir " + options.dir + ": " +
                 ec.message()};
  }
  Result<WalWriter> wal = WalWriter::Create(WalPath(options.dir));
  if (!wal.ok()) {
    return Error{wal.error()};
  }
  Result<SimSession> session = SimSession::Open(config);
  if (!session.ok()) {
    return Error{session.error()};
  }
  DurableSession durable(std::move(session.value()), std::move(wal.value()),
                         options);
  // Genesis checkpoint: from the first acknowledged command on, recovery
  // always has a base to replay against.
  const Result<bool> genesis = durable.Checkpoint();
  if (!genesis.ok()) {
    return Error{"cannot write genesis checkpoint: " + genesis.error()};
  }
  return durable;
}

Result<DurableSession> DurableSession::Recover(const Options& options) {
  Result<WalReadResult> wal_read = ReadWalFile(WalPath(options.dir));
  if (!wal_read.ok()) {
    return Error{"cannot recover " + options.dir + ": " + wal_read.error()};
  }
  const WalReadResult& wal = wal_read.value();

  SimSession::RestoreOptions restore;
  restore.telemetry = options.telemetry;
  Result<SimSession> session = RestoreNewestCheckpoint(options.dir, wal, restore);
  if (!session.ok()) {
    return Error{"cannot recover " + options.dir + ": " + session.error()};
  }
  // Replay checkpoints at every cadence boundary it crosses, so the cadence
  // is bounded before the first replayed command.
  const Result<bool> cadence = CheckCadence(
      "checkpoint cadence", options.checkpoint_every_s, session.value().duration_s());
  if (!cadence.ok()) {
    return Error{"cannot recover " + options.dir + ": " + cadence.error()};
  }

  // Reattach the journal, truncating any torn tail first: the next append
  // lands directly after the last record that was ever acknowledged.
  Result<WalWriter> writer = WalWriter::OpenAt(WalPath(options.dir), wal.valid_bytes);
  if (!writer.ok()) {
    return Error{"cannot recover " + options.dir + ": " + writer.error()};
  }

  DurableSession durable(std::move(session.value()), std::move(writer.value()),
                         options);
  // Continue checkpoint ids past everything ever mentioned -- markers whose
  // snapshot never landed and files whose marker was truncated included.
  uint64_t max_id = 0;
  bool any_id = false;
  for (const auto& [id, marker] : CheckpointMarkers(wal)) {
    (void)marker;
    max_id = std::max(max_id, id);
    any_id = true;
  }
  for (const CheckpointFile& file : ListCheckpoints(options.dir)) {
    max_id = std::max(max_id, file.id);
    any_id = true;
  }
  durable.next_checkpoint_id_ = any_id ? max_id + 1 : 0;
  // Dedupe key = the restored state: an immediately repeated recovery (or a
  // finished run restarted by a supervisor) won't accrete identical
  // snapshots under fresh ids.
  durable.last_ckpt_time_s_ = durable.session_.now();
  durable.last_ckpt_events_ = durable.session_.events_executed();

  // Re-apply the journaled command suffix THROUGH the auto-checkpoint path:
  // cadence boundaries the dead process never reached are checkpointed as
  // the replay crosses them, so a kill chain always makes durable progress
  // (each generation can die and the next resumes further along).
  const Result<bool> replayed =
      ReplayWal(durable.session_, wal.records, [&durable](double t) {
        return durable.ApplyStepUntil(t, /*journal=*/false);
      });
  if (!replayed.ok()) {
    return Error{replayed.error()};
  }
  // Post-replay checkpoint (deduped when replay advanced nothing): whatever
  // this recovery recomputed is immediately durable.
  const Result<bool> sealed = durable.Checkpoint();
  if (!sealed.ok()) {
    return Error{sealed.error()};
  }
  return durable;
}

Result<bool> DurableSession::ApplyStepUntil(double t, bool journal) {
  if (journal) {
    const Result<bool> appended = wal_.Append(WalRecord::StepUntil(t));
    if (!appended.ok()) {
      return appended;
    }
  }
  if (options_.checkpoint_every_s > 0.0) {
    const double target = std::min(t, session_.duration_s());
    double boundary = NextBoundary(session_.now(), options_.checkpoint_every_s);
    while (boundary <= target) {
      session_.StepUntil(boundary);
      const Result<bool> saved = CheckpointInternal(/*forced=*/false);
      if (!saved.ok()) {
        return saved;
      }
      boundary = NextBoundary(session_.now(), options_.checkpoint_every_s);
    }
  }
  session_.StepUntil(t);
  return true;
}

Result<bool> DurableSession::StepUntil(double t) {
  return ApplyStepUntil(t, /*journal=*/true);
}

Result<int64_t> DurableSession::StepEvents(int64_t max_events) {
  // Journal the ABSOLUTE post-step event count: replay after a crash
  // re-runs "until N total", which no-ops once the state already holds N.
  const int64_t target = session_.events_executed() + max_events;
  const Result<bool> appended = wal_.Append(WalRecord::StepEventsTo(target));
  if (!appended.ok()) {
    return Error{appended.error()};
  }
  return session_.StepEvents(max_events);
}

Result<bool> DurableSession::Checkpoint() {
  return CheckpointInternal(/*forced=*/true);
}

Result<bool> DurableSession::CheckpointInternal(bool forced) {
  if (session_.now() == last_ckpt_time_s_ &&
      session_.events_executed() == last_ckpt_events_) {
    return true;  // nothing advanced since the newest durable snapshot
  }
  // The wall-clock gate: on a run that clears many cadence boundaries per
  // wall-second there is no durability value in checkpointing each one --
  // skipping keeps the overhead bounded by (checkpoint cost / interval)
  // while a crash still loses at most min_checkpoint_wall_s of wall time.
  if (!forced && options_.min_checkpoint_wall_s > 0.0) {
    const std::chrono::duration<double> since =
        std::chrono::steady_clock::now() - last_ckpt_wall_;
    if (since.count() < options_.min_checkpoint_wall_s) {
      return true;
    }
  }
  const std::string bytes = session_.SnapshotBytes();
  const uint64_t id = next_checkpoint_id_++;
  // Marker BEFORE snapshot: a marker without its file means "checkpoint cut
  // short" (recovery skips it); a file without a marker can only appear if
  // corruption truncated the WAL, and then the file still self-validates.
  const Result<bool> marked = wal_.Append(WalRecord::Checkpoint(
      id, session_.now(), session_.events_executed(), SealedSnapshotFnv(bytes),
      bytes.size()));
  if (!marked.ok()) {
    return marked;
  }
  CrashPoint("ckpt-marker-synced");
  const Result<bool> written = WriteFileAtomic(CheckpointPath(id), bytes);
  if (!written.ok()) {
    return written;
  }
  CrashPoint("ckpt-snapshot-written");
  // Retention only after the newer snapshot is durably in place: the newest
  // K files always include at least one complete recovery point.
  const std::vector<CheckpointFile> files = ListCheckpoints(options_.dir);
  for (size_t i = static_cast<size_t>(options_.keep_checkpoints);
       i < files.size(); ++i) {
    std::error_code ec;
    fs::remove(files[i].path, ec);
  }
  if (files.size() > static_cast<size_t>(options_.keep_checkpoints)) {
    SyncParentDir(CheckpointPath(id));
  }
  CrashPoint("ckpt-retired");
  last_ckpt_time_s_ = session_.now();
  last_ckpt_events_ = session_.events_executed();
  last_ckpt_wall_ = std::chrono::steady_clock::now();
  ++checkpoints_written_;
  return true;
}

Result<ClusterSimResult> DurableSession::Finish() {
  const Result<bool> stepped = StepUntil(session_.duration_s());
  if (!stepped.ok()) {
    return Error{stepped.error()};
  }
  // Final checkpoint: a supervisor restart after completion (e.g. killed
  // while exporting metrics) recovers instantly and just re-exports.
  const Result<bool> saved = Checkpoint();
  if (!saved.ok()) {
    return Error{saved.error()};
  }
  return session_.Finish();
}

}  // namespace defl

#include "src/sim/wal_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "src/common/atomic_file.h"
#include "src/common/crash_point.h"
#include "src/sim/snapshot_io.h"

namespace defl {
namespace {

constexpr size_t kHeaderBytes = sizeof(kWalMagic) + 4;
constexpr size_t kFrameOverhead = 4 + 1 + 8;  // length + kind + checksum

// Payload sizes are fixed per kind; a framed record whose length disagrees
// is malformed even if its checksum passes (a lying length field cannot
// smuggle a short payload through).
size_t PayloadBytesFor(WalRecordKind kind) {
  switch (kind) {
    case WalRecordKind::kStepUntil:
      return 8;
    case WalRecordKind::kStepEventsTo:
      return 8;
    case WalRecordKind::kCheckpoint:
      return 8 * 5;
  }
  return 0;
}

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  switch (record.kind) {
    case WalRecordKind::kStepUntil:
      AppendLe(payload, std::bit_cast<uint64_t>(record.t_s), 8);
      break;
    case WalRecordKind::kStepEventsTo:
      AppendLe(payload, static_cast<uint64_t>(record.target_events), 8);
      break;
    case WalRecordKind::kCheckpoint:
      AppendLe(payload, record.checkpoint_id, 8);
      AppendLe(payload, std::bit_cast<uint64_t>(record.sim_time_s), 8);
      AppendLe(payload, static_cast<uint64_t>(record.events_executed), 8);
      AppendLe(payload, record.snapshot_fnv, 8);
      AppendLe(payload, record.snapshot_size, 8);
      break;
  }
  return payload;
}

std::string ErrnoText() { return std::strerror(errno); }

Result<bool> WriteAllFsync(int fd, const char* data, size_t size,
                           const std::string& what) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error{"short write to " + what + ": " + ErrnoText()};
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    return Error{"fsync failed on " + what + ": " + ErrnoText()};
  }
  return true;
}

}  // namespace

WalRecord WalRecord::StepUntil(double t_s) {
  WalRecord r;
  r.kind = WalRecordKind::kStepUntil;
  r.t_s = t_s;
  return r;
}

WalRecord WalRecord::StepEventsTo(int64_t target_events) {
  WalRecord r;
  r.kind = WalRecordKind::kStepEventsTo;
  r.target_events = target_events;
  return r;
}

WalRecord WalRecord::Checkpoint(uint64_t id, double sim_time_s,
                                int64_t events_executed, uint64_t snapshot_fnv,
                                uint64_t snapshot_size) {
  WalRecord r;
  r.kind = WalRecordKind::kCheckpoint;
  r.checkpoint_id = id;
  r.sim_time_s = sim_time_s;
  r.events_executed = events_executed;
  r.snapshot_fnv = snapshot_fnv;
  r.snapshot_size = snapshot_size;
  return r;
}

std::string EncodeWalRecord(const WalRecord& record) {
  const std::string payload = EncodePayload(record);
  std::string bytes;
  bytes.reserve(kFrameOverhead + payload.size());
  AppendLe(bytes, static_cast<uint32_t>(payload.size()), 4);
  bytes.push_back(static_cast<char>(record.kind));
  bytes.append(payload);
  AppendLe(bytes, SnapshotFnv1a64(bytes.data(), bytes.size()), 8);
  return bytes;
}

std::string EncodeWalHeader() {
  std::string bytes(kWalMagic, sizeof(kWalMagic));
  AppendLe(bytes, kWalFormatVersion, 4);
  return bytes;
}

Result<WalReadResult> DecodeWal(const std::string& bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Error{"WAL truncated: " + std::to_string(bytes.size()) +
                 " bytes is smaller than the fixed header"};
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Error{"not a deflation WAL (bad magic)"};
  }
  const uint64_t version = LoadLe(bytes.data() + sizeof(kWalMagic), 4);
  if (version != kWalFormatVersion) {
    return Error{"unsupported WAL format version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kWalFormatVersion) + ")"};
  }

  WalReadResult result;
  size_t pos = kHeaderBytes;
  const auto torn = [&](const std::string& reason) {
    result.torn = true;
    result.torn_reason = reason + " at offset " + std::to_string(pos);
    result.valid_bytes = pos;
    return result;
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameOverhead) {
      return torn("short record frame");
    }
    const uint32_t payload_len = static_cast<uint32_t>(LoadLe(bytes.data() + pos, 4));
    const uint8_t kind_byte = static_cast<uint8_t>(bytes[pos + 4]);
    if (bytes.size() - pos < kFrameOverhead + payload_len) {
      return torn("record frame runs past end of file");
    }
    const size_t body = 4 + 1 + payload_len;
    const uint64_t expected = LoadLe(bytes.data() + pos + body, 8);
    const uint64_t actual = SnapshotFnv1a64(bytes.data() + pos, body);
    if (expected != actual) {
      return torn("record checksum mismatch");
    }
    if (kind_byte > kMaxWalRecordKind) {
      return torn("unknown record kind " + std::to_string(kind_byte));
    }
    const WalRecordKind kind = static_cast<WalRecordKind>(kind_byte);
    if (payload_len != PayloadBytesFor(kind)) {
      return torn("record payload length " + std::to_string(payload_len) +
                  " does not match its kind");
    }
    const char* p = bytes.data() + pos + 5;
    WalRecord record;
    record.kind = kind;
    switch (kind) {
      case WalRecordKind::kStepUntil:
        record.t_s = std::bit_cast<double>(LoadLe(p, 8));
        break;
      case WalRecordKind::kStepEventsTo:
        record.target_events = static_cast<int64_t>(LoadLe(p, 8));
        break;
      case WalRecordKind::kCheckpoint:
        record.checkpoint_id = LoadLe(p, 8);
        record.sim_time_s = std::bit_cast<double>(LoadLe(p + 8, 8));
        record.events_executed = static_cast<int64_t>(LoadLe(p + 16, 8));
        record.snapshot_fnv = LoadLe(p + 24, 8);
        record.snapshot_size = LoadLe(p + 32, 8);
        break;
    }
    result.records.push_back(record);
    pos += body + 8;
  }
  result.valid_bytes = pos;
  return result;
}

Result<WalReadResult> ReadWalFile(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    return Error{bytes.error()};
  }
  Result<WalReadResult> decoded = DecodeWal(bytes.value());
  if (!decoded.ok()) {
    return Error{path + ": " + decoded.error()};
  }
  return decoded;
}

Result<WalWriter> WalWriter::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Error{"cannot create WAL " + path + ": " + ErrnoText()};
  }
  const std::string header = EncodeWalHeader();
  const Result<bool> wrote = WriteAllFsync(fd, header.data(), header.size(), path);
  if (!wrote.ok()) {
    ::close(fd);
    return Error{wrote.error()};
  }
  SyncParentDir(path);
  return WalWriter(fd);
}

Result<WalWriter> WalWriter::OpenAt(const std::string& path,
                                    uint64_t valid_bytes) {
  if (valid_bytes < kHeaderBytes) {
    return Error{"WAL append position " + std::to_string(valid_bytes) +
                 " is inside the header"};
  }
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Error{"cannot open WAL " + path + " for appending: " + ErrnoText()};
  }
  // Drop the torn tail so the next record lands directly after the last
  // valid one (the trace_io EOF posture: garbage after the valid prefix is
  // discarded, never reinterpreted).
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    const std::string error = ErrnoText();
    ::close(fd);
    return Error{"cannot truncate WAL " + path + " torn tail: " + error};
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    const std::string error = ErrnoText();
    ::close(fd);
    return Error{"cannot seek WAL " + path + ": " + error};
  }
  if (::fsync(fd) != 0) {
    const std::string error = ErrnoText();
    ::close(fd);
    return Error{"fsync failed on " + path + ": " + error};
  }
  return WalWriter(fd);
}

WalWriter::WalWriter(WalWriter&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
    }
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<bool> WalWriter::Append(const WalRecord& record) {
  if (fd_ < 0) {
    return Error{"WAL writer was moved from"};
  }
  const std::string bytes = EncodeWalRecord(record);
  // Chaos window: die after only half the record reaches the file -- the
  // manufactured torn tail the reader must truncate on recovery.
  if (CrashPointFires("wal-append-torn")) {
    const size_t half = bytes.size() / 2;
    (void)WriteAllFsync(fd_, bytes.data(), half, "WAL");
    CrashPointKill();
  }
  const Result<bool> wrote = WriteAllFsync(fd_, bytes.data(), bytes.size(), "WAL");
  if (!wrote.ok()) {
    return wrote;
  }
  // Chaos window: the record is durable but nothing that follows it is.
  CrashPoint("wal-append-synced");
  return true;
}

}  // namespace defl

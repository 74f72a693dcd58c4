// Binary snapshot framing for deterministic checkpoint/restore (DESIGN.md
// §11). A snapshot is a single self-delimiting blob:
//
//   magic "DEFLSNAP" (8 bytes) | format version (u32) | payload ... |
//   FNV-1a-64 footer over everything before it (u64, little-endian)
//
// All integers are little-endian; doubles are serialized as their IEEE-754
// bit pattern, so values round-trip bit-exactly (the whole point: a restored
// run must replay byte-identical telemetry). Strings and vectors carry a
// u64 length prefix. The reader is strict and total: truncated, corrupted,
// or version-skewed inputs produce a Result error naming what went wrong,
// never a crash or a partially-applied state.
#ifndef SRC_SIM_SNAPSHOT_IO_H_
#define SRC_SIM_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace defl {

// FNV-1a 64-bit over a byte range (the same digest the golden suite pins
// tool output with; here it is the snapshot integrity footer). `hash`
// continues a running digest: SnapshotFnv1a64(b, n, SnapshotFnv1a64(a, m))
// is the digest of a's m bytes followed by b's n.
inline constexpr uint64_t kFnv1a64Basis = 14695981039346656037ull;
inline constexpr uint64_t kFnv1a64Prime = 1099511628211ull;
uint64_t SnapshotFnv1a64(const char* data, size_t size, uint64_t hash = kFnv1a64Basis);
// SnapshotFnv1a64 of a whole sealed blob, footer included. The footer is
// the digest of everything before it, so this continues it over the
// footer's own 8 bytes instead of re-reading the blob. Only for a blob
// whose footer OpenView has verified or SnapshotWriter::Finish wrote.
uint64_t SealedSnapshotFnv(std::string_view sealed);
// A 64-bit digest as 16 lowercase hex digits, the spelling every report
// footer and integrity error uses.
std::string Hex16(uint64_t v);
// The low `width` bytes of `v`, least significant first: the byte order of
// every snapshot and write-ahead-journal integer.
void AppendLe(std::string& out, uint64_t v, int width);
uint64_t LoadLe(const char* p, int width);

inline constexpr char kSnapshotMagic[8] = {'D', 'E', 'F', 'L', 'S', 'N', 'A', 'P'};
// Version history:
//   1 -- initial SimSession format (PR 5).
//   2 -- ClusterSimConfig carries the diurnal/bursty ArrivalGenConfig.
//   3 -- config-generated traces and strictly-future arrivals are elided
//        (length + checksum only); durable-run checkpoints (PR 7).
//   4 -- ClusterSimConfig carries the InteractiveSloConfig workload mix.
inline constexpr uint32_t kSnapshotFormatVersion = 4;

// Append-only typed encoder. Build the payload with the typed writers, then
// Finish() seals the header + footer and returns the full blob.
class SnapshotWriter {
 public:
  SnapshotWriter();

  void WriteU8(uint8_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  // IEEE-754 bit pattern: bit-exact round-trip.
  void WriteF64(double v);
  void WriteString(const std::string& s);

  // Seals and returns the blob (header + payload + FNV-1a footer). The
  // writer must not be reused afterwards.
  std::string Finish();

 private:
  std::string bytes_;
  bool finished_ = false;
};

// Sequential typed decoder over a sealed blob. OpenView() verifies the
// magic, the version, and the integrity footer up front, so the typed reads
// only have to guard against logical truncation (reads past the payload).
//
// The reader decodes IN PLACE over memory the caller keeps alive and never
// mutates: that is what makes restores from one shared const blob cheap --
// N concurrent readers over the same string perform zero copies of it
// (DESIGN.md §15).
class SnapshotReader {
 public:
  // Validates framing; the reader is positioned at the start of the payload.
  // `bytes` must outlive the reader and must not change while any reader
  // views it (readers never write through it).
  static Result<SnapshotReader> OpenView(std::string_view bytes);

  // Typed reads. After any failure ok() turns false and every later read
  // returns a zero value; callers check ok()/error() once per section.
  uint8_t ReadU8();
  uint64_t ReadU64();
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  bool ReadBool() { return ReadU8() != 0; }
  double ReadF64();
  std::string ReadString();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Manual failure injection point for semantic validation errors, so one
  // error-reporting channel covers framing and content checks alike.
  void Fail(const std::string& message);

  // True when the payload was consumed exactly (trailing bytes are suspect).
  bool AtEnd() const { return pos_ == payload_end_; }
  // Payload bytes not yet consumed; lets callers sanity-bound length
  // prefixes before looping (a crafted count must not drive a huge loop).
  size_t Remaining() const { return payload_end_ - pos_; }

 private:
  SnapshotReader(std::string_view bytes, size_t payload_begin, size_t payload_end)
      : bytes_(bytes), pos_(payload_begin), payload_end_(payload_end) {}
  bool Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
  size_t payload_end_ = 0;
  std::string error_;
};

// File convenience wrappers. WriteSnapshotFile goes through WriteFileAtomic
// (tmp + fsync + rename + parent-dir fsync), so a crash -- even power loss --
// mid-write can never leave a half-written snapshot where a resumable one is
// expected.
Result<bool> WriteSnapshotFile(const std::string& bytes, const std::string& path);
Result<std::string> ReadSnapshotFile(const std::string& path);

}  // namespace defl

#endif  // SRC_SIM_SNAPSHOT_IO_H_

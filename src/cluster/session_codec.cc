#include "src/cluster/session_codec.h"

#include <bit>
#include <string>

namespace defl {

std::string SnapshotDecoder::error() const {
  if (failed_in_.empty()) {
    return reader_.error();
  }
  return reader_.error() + ", in section " + failed_in_;
}

void SnapshotDecoder::Count(uint64_t& n, size_t min_entry_bytes, const char* what) {
  n = reader_.ReadU64();
  if (reader_.ok() && min_entry_bytes > 0 &&
      n > reader_.Remaining() / min_entry_bytes) {
    reader_.Fail(std::string("snapshot ") + what + " count " + std::to_string(n) +
                 " exceeds the remaining payload");
    n = 0;
  }
}

void SnapshotDecoder::NoteFailedSections() {
  if (!failed_in_.empty()) {
    return;
  }
  for (const char* name : open_) {
    failed_in_ += (failed_in_.empty() ? "" : " > ") + std::string(name);
  }
}

namespace {

// SnapshotEncoder's calls, spelled byte for byte as SnapshotWriter spells
// them, but folded straight into a running FNV-1a: the digest of the blob
// an encoder would seal, without ever holding the blob.
class ChecksumEncoder {
 public:
  static constexpr bool kDecoding = false;

  // The header a SnapshotWriter starts with.
  ChecksumEncoder() {
    hash_ = SnapshotFnv1a64(kSnapshotMagic, sizeof(kSnapshotMagic), hash_);
    Le(kSnapshotFormatVersion, 4);
  }

  struct [[maybe_unused]] Scope {};
  Scope Section(const char* /*name*/) { return {}; }

  void U8(uint8_t v) { hash_ = (hash_ ^ v) * kFnv1a64Prime; }
  void U64(uint64_t v) { Le(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void String(const std::string& v) {
    U64(v.size());
    hash_ = SnapshotFnv1a64(v.data(), v.size(), hash_);
  }
  template <typename E>
  void Enum(E v, E /*last*/, const char* /*what*/) {
    U8(static_cast<uint8_t>(v));
  }
  void Count(uint64_t n, size_t /*min_entry_bytes*/, const char* /*what*/) { U64(n); }

  // The digest of the sealed blob: everything so far, then the footer --
  // the digest of everything so far.
  uint64_t Seal() {
    U64(hash_);
    return hash_;
  }

 private:
  // The low `width` bytes of `v`, least significant first (AppendLe's order).
  void Le(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      U8(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  uint64_t hash_ = kFnv1a64Basis;
};

}  // namespace

uint64_t TraceChecksum(const std::vector<TraceEvent>& trace) {
  ChecksumEncoder io;
  for (const TraceEvent& event : trace) {
    Transfer(io, event);
  }
  return io.Seal();
}

}  // namespace defl

#include "src/sim/snapshot_io.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/atomic_file.h"

namespace defl {

uint64_t SnapshotFnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

void AppendU64Le(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t LoadU64Le(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

SnapshotWriter::SnapshotWriter() {
  bytes_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  WriteU32(kSnapshotFormatVersion);
}

void SnapshotWriter::WriteU8(uint8_t v) {
  assert(!finished_);
  bytes_.push_back(static_cast<char>(v));
}

void SnapshotWriter::WriteU32(uint32_t v) {
  assert(!finished_);
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void SnapshotWriter::WriteU64(uint64_t v) {
  assert(!finished_);
  AppendU64Le(bytes_, v);
}

void SnapshotWriter::WriteF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void SnapshotWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  assert(!finished_);
  bytes_.append(s);
}

std::string SnapshotWriter::Finish() {
  assert(!finished_);
  finished_ = true;
  AppendU64Le(bytes_, SnapshotFnv1a64(bytes_.data(), bytes_.size()));
  return std::move(bytes_);
}

SnapshotReader::SnapshotReader(std::string owned, std::string_view bytes,
                               size_t payload_begin, size_t payload_end)
    : owned_(std::move(owned)),
      bytes_(owned_.empty() ? bytes : std::string_view(owned_)),
      pos_(payload_begin),
      payload_end_(payload_end) {}

SnapshotReader::SnapshotReader(SnapshotReader&& other) noexcept
    : owned_(std::move(other.owned_)),
      bytes_(owned_.empty() ? other.bytes_ : std::string_view(owned_)),
      pos_(other.pos_),
      payload_end_(other.payload_end_),
      error_(std::move(other.error_)) {}

SnapshotReader& SnapshotReader::operator=(SnapshotReader&& other) noexcept {
  if (this != &other) {
    owned_ = std::move(other.owned_);
    bytes_ = owned_.empty() ? other.bytes_ : std::string_view(owned_);
    pos_ = other.pos_;
    payload_end_ = other.payload_end_;
    error_ = std::move(other.error_);
  }
  return *this;
}

Result<SnapshotReader> SnapshotReader::Open(std::string bytes) {
  Result<SnapshotReader> opened = OpenView(std::string_view(bytes));
  if (!opened.ok()) {
    return Error{opened.error()};
  }
  // Re-anchor the validated framing onto storage the reader owns; pos_ and
  // payload_end_ are offsets, so they carry over unchanged.
  return SnapshotReader(std::move(bytes), std::string_view(),
                        opened.value().pos_, opened.value().payload_end_);
}

Result<SnapshotReader> SnapshotReader::OpenView(std::string_view bytes) {
  constexpr size_t kHeader = sizeof(kSnapshotMagic) + 4;
  constexpr size_t kFooter = 8;
  if (bytes.size() < kHeader + kFooter) {
    return Error{"snapshot truncated: " + std::to_string(bytes.size()) +
                 " bytes is smaller than the fixed header + footer"};
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Error{"not a deflation snapshot (bad magic)"};
  }
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(
                   static_cast<unsigned char>(bytes[sizeof(kSnapshotMagic) + i]))
               << (8 * i);
  }
  if (version != kSnapshotFormatVersion) {
    return Error{"unsupported snapshot format version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kSnapshotFormatVersion) +
                 "); re-run with the build that wrote it"};
  }
  const size_t body = bytes.size() - kFooter;
  const uint64_t expected = LoadU64Le(bytes.data() + body);
  const uint64_t actual = SnapshotFnv1a64(bytes.data(), body);
  if (expected != actual) {
    return Error{"snapshot integrity check failed (footer " + Hex16(expected) +
                 " != content " + Hex16(actual) +
                 "); the file is corrupted or truncated"};
  }
  return SnapshotReader(std::string(), bytes, kHeader, body);
}

bool SnapshotReader::Need(size_t n) {
  if (!ok()) {
    return false;
  }
  if (payload_end_ - pos_ < n) {
    Fail("snapshot payload ended early (needed " + std::to_string(n) +
         " more bytes at offset " + std::to_string(pos_) + ")");
    return false;
  }
  return true;
}

void SnapshotReader::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
  pos_ = payload_end_;
}

uint8_t SnapshotReader::ReadU8() {
  if (!Need(1)) {
    return 0;
  }
  return static_cast<uint8_t>(bytes_[pos_++]);
}

uint32_t SnapshotReader::ReadU32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t SnapshotReader::ReadU64() {
  if (!Need(8)) {
    return 0;
  }
  const uint64_t v = LoadU64Le(bytes_.data() + pos_);
  pos_ += 8;
  return v;
}

double SnapshotReader::ReadF64() {
  const uint64_t bits = ReadU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::ReadString() {
  const uint64_t size = ReadU64();
  // Bound before Need(): a corrupted length must not drive a huge allocation.
  if (ok() && size > payload_end_ - pos_) {
    Fail("snapshot string length " + std::to_string(size) +
         " exceeds the remaining payload");
    return {};
  }
  if (!Need(static_cast<size_t>(size))) {
    return {};
  }
  std::string out(bytes_.substr(pos_, static_cast<size_t>(size)));
  pos_ += static_cast<size_t>(size);
  return out;
}

Result<bool> WriteSnapshotFile(const std::string& bytes, const std::string& path) {
  return WriteFileAtomic(path, bytes);
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{"cannot open snapshot file " + path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Error{"read error on snapshot file " + path};
  }
  return std::move(buffer).str();
}

}  // namespace defl

#include "src/sim/snapshot_io.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "src/common/atomic_file.h"

namespace defl {

uint64_t SnapshotFnv1a64(const char* data, size_t size, uint64_t hash) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnv1a64Prime;
  }
  return hash;
}

uint64_t SealedSnapshotFnv(std::string_view sealed) {
  assert(sealed.size() >= 8);
  const char* footer = sealed.data() + sealed.size() - 8;
  return SnapshotFnv1a64(footer, 8, LoadLe(footer, 8));
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void AppendLe(std::string& out, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t LoadLe(const char* p, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

SnapshotWriter::SnapshotWriter() {
  bytes_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendLe(bytes_, kSnapshotFormatVersion, 4);
}

void SnapshotWriter::WriteU8(uint8_t v) {
  assert(!finished_);
  bytes_.push_back(static_cast<char>(v));
}

void SnapshotWriter::WriteU64(uint64_t v) {
  assert(!finished_);
  AppendLe(bytes_, v, 8);
}

void SnapshotWriter::WriteF64(double v) { WriteU64(std::bit_cast<uint64_t>(v)); }

void SnapshotWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  assert(!finished_);
  bytes_.append(s);
}

std::string SnapshotWriter::Finish() {
  assert(!finished_);
  finished_ = true;
  AppendLe(bytes_, SnapshotFnv1a64(bytes_.data(), bytes_.size()), 8);
  return std::move(bytes_);
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
  const uint64_t version = LoadLe(bytes.data() + sizeof(kSnapshotMagic), 4);
  if (version != kSnapshotFormatVersion) {
    return Error{"unsupported snapshot format version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kSnapshotFormatVersion) +
                 "); re-run with the build that wrote it"};
  }
  const size_t body = bytes.size() - kFooter;
  const uint64_t expected = LoadLe(bytes.data() + body, 8);
  const uint64_t actual = SnapshotFnv1a64(bytes.data(), body);
  if (expected != actual) {
    return Error{"snapshot integrity check failed (footer " + Hex16(expected) +
                 " != content " + Hex16(actual) +
                 "); the file is corrupted or truncated"};
  }
  return SnapshotReader(bytes, kHeader, body);
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

uint64_t SnapshotReader::ReadU64() {
  if (!Need(8)) {
    return 0;
  }
  const uint64_t v = LoadLe(bytes_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

double SnapshotReader::ReadF64() { return std::bit_cast<double>(ReadU64()); }

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
  return ReadFileToString(path);
}

}  // namespace defl

#include "src/cluster/session_codec.h"

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

uint64_t TraceChecksum(const std::vector<TraceEvent>& trace) {
  SnapshotWriter writer;
  SnapshotEncoder io(writer);
  for (const TraceEvent& event : trace) {
    Transfer(io, event);
  }
  const std::string bytes = writer.Finish();
  return SnapshotFnv1a64(bytes.data(), bytes.size());
}

}  // namespace defl

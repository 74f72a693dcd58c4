// Named crash points for durability testing: deliberate process death at
// precise moments inside the persistence machinery (mid-WAL-append, after a
// checkpoint marker but before its snapshot, after the tmp write but before
// the rename, ...). The chaos CI job and the kill-recovery property tests
// arm a point and count, then assert that recovery from whatever the dying
// process left behind is byte-identical to an uninterrupted run.
//
// A point is armed either programmatically (ArmCrashPointForTest, used by
// fork()ed test children) or through the environment:
//
//   DEFL_CRASH_POINT=<name>:<count>   # die at the <count>-th hit of <name>
//
// Death is a real SIGKILL (no atexit handlers, no stream flushing) -- the
// same signal the chaos supervisor delivers, so both paths exercise the
// exact "power was cut here" recovery contract. Unarmed, every hook is one
// predictable branch; production builds keep them.
#ifndef SRC_COMMON_CRASH_POINT_H_
#define SRC_COMMON_CRASH_POINT_H_

#include <cstdint>

namespace defl {

// Counts a hit of the named point; returns true when this hit is the armed,
// fatal one. Callers that need to die mid-operation (e.g. after writing half
// a WAL record) do the partial work themselves and then call CrashPointKill.
bool CrashPointFires(const char* name);

// Dies by SIGKILL, immediately. Never returns.
[[noreturn]] void CrashPointKill();

// The common shape: die right here when armed.
inline void CrashPoint(const char* name) {
  if (CrashPointFires(name)) {
    CrashPointKill();
  }
}

// Arms `name` to fire on its `countdown`-th hit from now (1 = next hit).
// Overrides any DEFL_CRASH_POINT environment arming. Intended for test
// children between fork() and the code under test.
void ArmCrashPointForTest(const char* name, int64_t countdown);

}  // namespace defl

#endif  // SRC_COMMON_CRASH_POINT_H_

#include "src/common/crash_point.h"

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>

namespace defl {
namespace {

// One armed point per process is enough: a crash test dies at the first
// fatal hit, and the next generation re-arms after fork/exec.
struct Arming {
  std::string name;
  int64_t countdown = 0;  // fatal when it reaches 0 on a hit
  bool armed = false;
};

Arming& GetArming() {
  static Arming arming = [] {
    Arming a;
    const char* env = std::getenv("DEFL_CRASH_POINT");
    if (env != nullptr && *env != '\0') {
      const char* colon = std::strrchr(env, ':');
      if (colon != nullptr && colon != env) {
        a.name.assign(env, static_cast<size_t>(colon - env));
        a.countdown = std::strtoll(colon + 1, nullptr, 10);
        a.armed = a.countdown > 0;
      }
    }
    return a;
  }();
  return arming;
}

}  // namespace

bool CrashPointFires(const char* name) {
  Arming& arming = GetArming();
  if (!arming.armed || arming.name != name) {
    return false;
  }
  return --arming.countdown == 0;
}

void CrashPointKill() {
  // SIGKILL cannot be caught: no destructors, no buffered-stream flushes --
  // exactly what a reclaimed transient server or an OOM kill looks like.
  ::kill(::getpid(), SIGKILL);
  ::_exit(137);  // unreachable; keeps [[noreturn]] honest if kill fails
}

void ArmCrashPointForTest(const char* name, int64_t countdown) {
  Arming& arming = GetArming();
  arming.name = name;
  arming.countdown = countdown;
  arming.armed = countdown > 0;
}

}  // namespace defl

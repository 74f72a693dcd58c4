// chaos_runner: crash-recovery supervisor for durable simulation runs.
//
// Launches a child command, SIGKILLs it at a seeded random wall-clock delay,
// and relaunches the SAME command until it completes -- the execution a
// durable run promises to survive (DESIGN.md §13). After the child finally
// exits 0, optional --compare pairs assert that the files the killed-and-
// recovered run produced are byte-identical to reference files from an
// uninterrupted run.
//
// Examples:
//   chaos_runner --seed=7 --kills=4 --
//       deflation_sim --servers=20 --workload=run.workload --durable-dir=run.d
//                     --metrics-out=m.json
//   chaos_runner --seed=7 --kills=4 --compare=m.json=ref.json --
//       deflation_sim ... --durable-dir=run.d --metrics-out=m.json
//
// Exit status: 0 when the command completed (and every compare pair
// matched); 1 on a supervisor/compare failure; the child's own exit status
// when it failed for reasons other than our SIGKILL.
#include <sys/types.h>
#include <sys/wait.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/flags.h"
#include "src/common/rng.h"

using namespace defl;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "chaos_runner: %s\n", message.c_str());
  return 1;
}

// Splits "a=b,c=d" into {{a,b},{c,d}}.
Result<std::vector<std::pair<std::string, std::string>>> ParseComparePairs(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t start = 0;
  while (start <= spec.size() && !spec.empty()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(start, comma - start);
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      return Error{"bad --compare item '" + item + "' (want produced=reference)"};
    }
    pairs.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (comma == spec.size()) {
      break;
    }
    start = comma + 1;
  }
  return pairs;
}

struct ChildOutcome {
  bool exited = false;     // normal exit (vs. signal)
  int exit_status = 0;     // when exited
  int term_signal = 0;     // when signalled
  bool killed_by_us = false;
};

// Runs one generation of the child. When `kill_after_ms` >= 0, delivers
// SIGKILL once that wall-clock delay elapses (unless the child beat it).
Result<ChildOutcome> RunGeneration(const std::vector<std::string>& command,
                                   int64_t kill_after_ms) {
  std::vector<char*> argv;
  argv.reserve(command.size() + 1);
  for (const std::string& arg : command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Error{std::string("fork failed: ") + std::strerror(errno)};
  }
  if (pid == 0) {
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "chaos_runner: cannot exec %s: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kill_after_ms < 0 ? 0 : kill_after_ms);
  ChildOutcome outcome;
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      if (WIFEXITED(status)) {
        outcome.exited = true;
        outcome.exit_status = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        outcome.term_signal = WTERMSIG(status);
      }
      return outcome;
    }
    if (done < 0) {
      return Error{std::string("waitpid failed: ") + std::strerror(errno)};
    }
    if (kill_after_ms >= 0 && std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      outcome.killed_by_us = true;
      kill_after_ms = -1;  // keep waiting, but only reap from here on
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

int main(int argc, char** argv) {
  int seed = 1;
  int kills = 3;
  int min_delay_ms = 10;
  int max_delay_ms = 500;
  int max_restarts = 64;
  std::string compare;

  FlagParser parser(
      "chaos_runner: SIGKILL a durable run at seeded random times and "
      "restart it until completion");
  parser.AddInt("seed", "RNG seed for the kill schedule", &seed);
  parser.AddInt("kills", "SIGKILLs to deliver before letting the run finish",
                &kills);
  parser.AddInt("min-delay-ms", "earliest kill after launch", &min_delay_ms);
  parser.AddInt("max-delay-ms", "latest kill after launch", &max_delay_ms);
  parser.AddInt("max-restarts",
                "abort if the command needs more generations than this",
                &max_restarts);
  parser.AddString("compare",
                   "comma-separated produced=reference file pairs asserted "
                   "byte-identical after completion",
                   &compare);

  // Everything after "--" is the supervised command, untouched; only the
  // flags before it are ours.
  int split = argc;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      split = i;
      break;
    }
  }
  const Result<std::vector<std::string>> parsed = parser.Parse(split, argv);
  if (!parsed.ok()) {
    return Fail(parsed.error());
  }
  if (!parsed.value().empty()) {
    return Fail("unexpected positional argument '" + parsed.value()[0] +
                "' (put the supervised command after --)");
  }
  std::vector<std::string> command;
  for (int i = split + 1; i < argc; ++i) {
    command.emplace_back(argv[i]);
  }
  if (command.empty()) {
    return Fail("no command given (usage: chaos_runner [flags] -- command ...)");
  }
  if (min_delay_ms < 0 || max_delay_ms < min_delay_ms) {
    return Fail("need 0 <= --min-delay-ms <= --max-delay-ms");
  }
  const Result<std::vector<std::pair<std::string, std::string>>> pairs =
      ParseComparePairs(compare);
  if (!pairs.ok()) {
    return Fail(pairs.error());
  }

  Rng rng(static_cast<uint64_t>(seed));
  int64_t kills_delivered = 0;
  for (int64_t generation = 1;; ++generation) {
    if (generation > max_restarts) {
      return Fail("gave up after " + std::to_string(max_restarts) +
                  " generations (is recovery making progress?)");
    }
    const bool armed = kills_delivered < kills;
    const int64_t delay_ms =
        armed ? rng.UniformInt(min_delay_ms, max_delay_ms) : -1;
    if (armed) {
      std::printf("chaos_runner: generation %lld, SIGKILL in %lld ms\n",
                  static_cast<long long>(generation),
                  static_cast<long long>(delay_ms));
    } else {
      std::printf("chaos_runner: generation %lld, running to completion\n",
                  static_cast<long long>(generation));
    }
    std::fflush(stdout);
    const Result<ChildOutcome> ran = RunGeneration(command, delay_ms);
    if (!ran.ok()) {
      return Fail(ran.error());
    }
    const ChildOutcome& outcome = ran.value();
    if (outcome.killed_by_us || outcome.term_signal == SIGKILL) {
      ++kills_delivered;
      continue;  // the whole point: recovery must pick it up
    }
    if (!outcome.exited) {
      return Fail("command died on unexpected signal " +
                  std::to_string(outcome.term_signal));
    }
    if (outcome.exit_status != 0) {
      std::fprintf(stderr, "chaos_runner: command failed with status %d\n",
                   outcome.exit_status);
      return outcome.exit_status;
    }
    std::printf("chaos_runner: completed after %lld kills, %lld generations\n",
                static_cast<long long>(kills_delivered),
                static_cast<long long>(generation));
    break;
  }

  for (const auto& [produced, reference] : pairs.value()) {
    const Result<std::string> got = ReadFileToString(produced);
    if (!got.ok()) {
      return Fail(got.error());
    }
    const Result<std::string> want = ReadFileToString(reference);
    if (!want.ok()) {
      return Fail(want.error());
    }
    if (got.value() != want.value()) {
      return Fail("recovered output " + produced +
                  " differs from uninterrupted reference " + reference);
    }
    std::printf("chaos_runner: %s matches %s\n", produced.c_str(),
                reference.c_str());
  }
  return 0;
}

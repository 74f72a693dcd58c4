// deflation_server: what-if capacity-planning service over one fleet
// snapshot (DESIGN.md §15).
//
// Loads a snapshot (or recovers a durable run directory) ONCE into an
// immutable in-memory blob, then answers what-if queries -- place N VMs,
// fail K% of servers, overcommit to a target, run H sim-hours -- each on a
// private copy-on-restore child session, so queries never see each other
// and the base state never changes. A sweep grid fans a parameter matrix
// (policy x fail fraction x overcommit x intensity) over child runs and
// merges the cells in canonical grid order: output is byte-identical for
// every --workers value.
//
// Examples:
//   deflation_sim --stop-after-h=12 --snapshot-out=fleet.snap
//   deflation_server --snapshot=fleet.snap --queries=examples/whatif_queries.q
//   deflation_server --snapshot=fleet.snap --sweep=examples/sweep_policies.grid
//       --workers=8 --out=sweep.jsonl
//   deflation_server --recover-dir=run.d            # interactive: queries on stdin
#include <cstdio>
#include <iostream>
#include <string>

#include "src/cluster/sim_session.h"
#include "src/common/atomic_file.h"
#include "src/common/flags.h"
#include "src/common/sim_options.h"
#include "src/service/query.h"
#include "src/service/sweep.h"
#include "src/service/whatif.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/json_util.h"

using namespace defl;

namespace {

// Most --workers threads one server may start (CI runs 8).
constexpr int kMaxWorkers = 256;

int Fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return 1;
}

// Batch/sweep output lands atomically in --out, or on stdout.
int Emit(const std::string& text, const std::string& out_path) {
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  const Result<bool> written = WriteFileAtomic(out_path, text);
  if (!written.ok()) {
    return Fail("cannot write " + out_path + ": " + written.error());
  }
  return 0;
}

// Interactive mode: one query per stdin line, one JSON answer (or error)
// line per query on stdout. Parse errors are answers, not exits -- an
// operator typo must not take the service down.
int ServeStdin(const WhatIfService& service) {
  std::string line;
  while (std::getline(std::cin, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    if (line == "quit" || line == "exit") {
      break;
    }
    Result<WhatIfQuery> query = ParseQuery(line);
    if (!query.ok()) {
      std::printf("{\"error\":%s}\n", JsonString(query.error()).c_str());
      std::fflush(stdout);
      continue;
    }
    Result<std::string> answer = service.Answer(query.value());
    if (!answer.ok()) {
      std::printf("{\"error\":%s}\n", JsonString(answer.error()).c_str());
    } else {
      std::printf("%s\n", answer.value().c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot;
  std::string recover_dir;
  std::string queries_path;
  std::string sweep_path;
  std::string out_path;
  int workers = 1;

  FlagParser parser(
      "deflation_server: what-if capacity-planning queries over a fleet "
      "snapshot");
  parser.AddString("snapshot", "load this SimSession snapshot as the base fleet",
                   &snapshot);
  parser.AddString("recover-dir",
                   "recover this durable run directory (DESIGN.md §13) and "
                   "serve its recovered state instead of a snapshot file",
                   &recover_dir);
  parser.AddString("queries",
                   "answer this query script (one query per line) as a batch "
                   "and exit; without --queries/--sweep, queries are read "
                   "interactively from stdin",
                   &queries_path);
  parser.AddString("sweep",
                   "run this sweep grid file over the base snapshot and exit",
                   &sweep_path);
  parser.AddString("out", "write the batch/sweep report here (atomic) instead "
                   "of stdout",
                   &out_path);
  parser.AddInt("workers",
                "threads answering queries / sweep cells concurrently "
                "(output is byte-identical for every value)",
                &workers);
  const Result<std::vector<std::string>> parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    return Fail(parsed.error());
  }
  if (!parsed.value().empty()) {
    return Fail("unexpected positional argument '" + parsed.value()[0] + "'");
  }
  const Result<bool> combo = RejectFlagCombination(
      "snapshot", !snapshot.empty(), "recover-dir", !recover_dir.empty(),
      "the base fleet has exactly one source");
  if (!combo.ok()) {
    return Fail(combo.error());
  }
  const Result<bool> mode = RejectFlagCombination(
      "queries", !queries_path.empty(), "sweep", !sweep_path.empty(),
      "run batches and sweeps as separate invocations");
  if (!mode.ok()) {
    return Fail(mode.error());
  }
  if (snapshot.empty() && recover_dir.empty()) {
    return Fail("one of --snapshot or --recover-dir is required");
  }
  // Each worker is an OS thread; the cap is checked before any snapshot is
  // read, so a bad value starts nothing.
  if (workers < 1 || workers > kMaxWorkers) {
    return Fail("--workers must be in [1, " + std::to_string(kMaxWorkers) + "]");
  }

  // Acquire the base blob. A recovered durable dir is re-serialized through
  // SnapshotBytes(): restore is byte-exact, so children of the re-serialized
  // blob answer exactly as children of a snapshot taken at the same state.
  std::string blob;
  if (!snapshot.empty()) {
    Result<std::string> bytes = ReadSnapshotFile(snapshot);
    if (!bytes.ok()) {
      return Fail(bytes.error());
    }
    blob = std::move(bytes.value());
  } else {
    Result<SimSession> recovered = SimSession::Recover(recover_dir);
    if (!recovered.ok()) {
      return Fail("cannot recover " + recover_dir + ": " + recovered.error());
    }
    blob = recovered.value().SnapshotBytes();
  }

  Result<WhatIfService> loaded = WhatIfService::Load(std::move(blob));
  if (!loaded.ok()) {
    return Fail(loaded.error());
  }
  const WhatIfService& service = loaded.value();
  std::fprintf(stderr,
               "deflation_server: base fleet loaded (%zu bytes, fnv1a64 "
               "%016llx, t=%.1fh of %.1fh, workers=%d)\n",
               service.blob().size(),
               static_cast<unsigned long long>(service.blob_fnv()),
               service.base_now_s() / 3600.0,
               service.base_duration_s() / 3600.0, workers);

  if (!queries_path.empty()) {
    Result<std::string> script = ReadFileToString(queries_path);
    if (!script.ok()) {
      return Fail(script.error());
    }
    Result<std::vector<WhatIfQuery>> queries = ParseQueryScript(script.value());
    if (!queries.ok()) {
      return Fail(queries_path + ": " + queries.error());
    }
    return Emit(service.AnswerBatch(queries.value(), workers), out_path);
  }
  if (!sweep_path.empty()) {
    Result<std::string> grid_text = ReadFileToString(sweep_path);
    if (!grid_text.ok()) {
      return Fail(grid_text.error());
    }
    Result<SweepGrid> grid = ParseSweepGrid(grid_text.value());
    if (!grid.ok()) {
      return Fail(sweep_path + ": " + grid.error());
    }
    SweepOrchestrator orchestrator(&service);
    Result<std::string> report = orchestrator.Run(grid.value(), workers);
    if (!report.ok()) {
      return Fail(report.error());
    }
    return Emit(report.value(), out_path);
  }
  return ServeStdin(service);
}

#include "src/service/sweep.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "src/common/text_parse.h"
#include "src/common/thread_pool.h"
#include "src/sim/snapshot_io.h"
#include "src/telemetry/json_util.h"

namespace defl {

namespace {

constexpr VmId kSweepVmIdBase = 2'000'000'000'000LL;

// The parts of `text` between each `sep`, trimmed.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    const size_t end = text.find(sep, begin);
    parts.push_back(Trim(std::string_view(text).substr(begin, end - begin)));
    if (end == std::string::npos) {
      break;
    }
    begin = end + 1;
  }
  return parts;
}

// cpu:mem[:disk[:net]]
Result<ResourceVector> ParseShape(const std::string& text) {
  const std::vector<std::string> parts = Split(text, ':');
  if (parts.size() < 2 || parts.size() > 4) {
    return Error{"shape '" + text +
                 "' must be cpu:mem[:disk[:net]] (2 to 4 components)"};
  }
  double dims[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!ParseDouble(parts[i], &dims[i]) || dims[i] < 0.0) {
      return Error{"shape component '" + parts[i] + "' in '" + text +
                   "' is not a number >= 0"};
    }
  }
  if (dims[0] <= 0.0) {
    return Error{"shape '" + text + "' must have cpu > 0"};
  }
  return ResourceVector(dims[0], dims[1], dims[2], dims[3]);
}

// One cell of the grid, executed on a private child session. `service`
// provides the shared blob; everything else is cell-local.
Result<std::string> RunCell(const WhatIfService& service, const SweepGrid& grid,
                            PlacementPolicy policy, double fail_fraction,
                            double overcommit_target, double intensity) {
  TelemetryContext telemetry;
  Result<SimSession> restored =
      service.RestoreChild(&telemetry, static_cast<int>(policy));
  if (!restored.ok()) {
    return Error{"sweep cell restore failed: " + restored.error()};
  }
  SimSession& session = restored.value();
  ClusterManager& manager = session.manager();
  const ClusterCounters before = manager.counters();

  // 1. Fault stage: crash the configured fraction of healthy servers, with
  // the same seeded draw the fail query uses.
  const CrashOutcome crash =
      CrashHealthyFraction(manager, fail_fraction, grid.fail_seed);

  // 2. Admission stage: push `shape` VMs (the intensity axis scales the
  // budget) until the overcommit target is reached, a launch bounces or
  // the budget runs out. The budget is capped like a query's, which also
  // keeps the cast defined for any intensity.
  const int64_t budget = static_cast<int64_t>(
      std::min(std::floor(intensity * static_cast<double>(grid.limit) + 0.5),
               static_cast<double>(kMaxQueryLaunches)));
  VmSpec spec;
  spec.name = "sweep";
  spec.size = grid.shape;
  spec.priority = VmPriority::kLow;
  const AdmitOutcome admit = AdmitUntilOvercommit(
      manager, spec, kSweepVmIdBase, overcommit_target, budget);

  // 3. Sim stage: let the fleet evolve under its snapshotted workload.
  const ClusterCounters mid = manager.counters();
  if (grid.hours > 0.0) {
    session.StepUntil(session.now() + grid.hours * 3600.0);
  }
  const ClusterCounters end = manager.counters();
  const DeflationStats deflation = CollectDeflation(manager);

  std::string out = "{\"policy\":" + JsonString(PlacementPolicyName(policy));
  out += ",\"fail_fraction\":" + JsonNumber(fail_fraction);
  out += ",\"overcommit_target\":" + JsonNumber(overcommit_target);
  out += ",\"intensity\":" + JsonNumber(intensity);
  out += ",\"failed\":" + std::to_string(crash.failed);
  out += ",\"admitted\":" + std::to_string(admit.admitted);
  out += ",\"preempted\":" + std::to_string(end.preempted - before.preempted);
  out += ",\"sim_preempted\":" + std::to_string(end.preempted - mid.preempted);
  out += ",\"crash_preempted\":" +
         std::to_string(end.crash_preempted - before.crash_preempted);
  out += ",\"deflation_ops\":" +
         std::to_string(end.deflation_ops - before.deflation_ops);
  out += ",\"low_vms\":" + std::to_string(deflation.low_vms);
  out += ",\"p99_deflation\":" + JsonNumber(deflation.p99);
  out += ",\"mean_deflation\":" + JsonNumber(deflation.mean);
  out += ",\"utilization\":" + JsonNumber(manager.Utilization());
  out += ",\"overcommitment\":" + JsonNumber(manager.Overcommitment());
  out += "}";
  return out;
}

}  // namespace

Result<SweepGrid> ParseSweepGrid(const std::string& text) {
  const Result<std::vector<KeyValue>> settings = ReadKeyValues(text, "sweep grid");
  if (!settings.ok()) {
    return Error{settings.error()};
  }
  SweepGrid grid;
  for (const KeyValue& setting : settings.value()) {
    const std::string& key = setting.key;
    const std::string& value = setting.value;
    const std::string where = "sweep grid:" + std::to_string(setting.line);
    if (key == "policy") {
      for (const std::string& part : Split(value, ',')) {
        Result<PlacementPolicy> policy = PlacementPolicyFromName(part);
        if (!policy.ok()) {
          return Error{where + ": " + policy.error()};
        }
        grid.policies.push_back(policy.value());
      }
    } else if (key == "fail-fraction") {
      for (const std::string& part : Split(value, ',')) {
        double f = 0.0;
        if (!ParseDouble(part, &f) || f < 0.0 || f > 1.0) {
          return Error{where + ": fail-fraction '" + part +
                       "' is not a number in [0, 1]"};
        }
        grid.fail_fractions.push_back(f);
      }
    } else if (key == "overcommit-target") {
      for (const std::string& part : Split(value, ',')) {
        double t = 0.0;
        if (!ParseDouble(part, &t) || t <= 0.0) {
          return Error{where + ": overcommit-target '" + part +
                       "' is not a number > 0"};
        }
        grid.overcommit_targets.push_back(t);
      }
    } else if (key == "intensity") {
      for (const std::string& part : Split(value, ',')) {
        double a = 0.0;
        if (!ParseDouble(part, &a) || a < 0.0) {
          return Error{where + ": intensity '" + part +
                       "' is not a number >= 0"};
        }
        grid.intensities.push_back(a);
      }
    } else if (key == "hours") {
      if (!ParseDouble(value, &grid.hours) || grid.hours < 0.0) {
        return Error{where + ": hours '" + value + "' is not a number >= 0"};
      }
    } else if (key == "shape") {
      Result<ResourceVector> shape = ParseShape(value);
      if (!shape.ok()) {
        return Error{where + ": " + shape.error()};
      }
      grid.shape = shape.value();
    } else if (key == "fail-seed") {
      if (!ParseUint64(value, &grid.fail_seed)) {
        return Error{where + ": fail-seed '" + value +
                     "' is not an unsigned integer"};
      }
    } else if (key == "limit") {
      if (!ParseInt64(value, &grid.limit) || grid.limit < 1) {
        return Error{where + ": limit '" + value + "' is not an integer >= 1"};
      }
      if (grid.limit > kMaxQueryLaunches) {
        return Error{where + ": limit=" + value + " exceeds the cap of " +
                     std::to_string(kMaxQueryLaunches) + " launches per cell"};
      }
    } else {
      return Error{where + ": unknown key '" + key + "'"};
    }
  }
  // An axis the grid does not name sweeps its single default value. A
  // named axis is never empty: Split yields at least one part, and every
  // part either parses or fails above.
  if (grid.policies.empty()) {
    grid.policies.push_back(PlacementPolicy::kBestFit);
  }
  if (grid.fail_fractions.empty()) {
    grid.fail_fractions.push_back(0.0);
  }
  if (grid.overcommit_targets.empty()) {
    grid.overcommit_targets.push_back(1.0);
  }
  if (grid.intensities.empty()) {
    grid.intensities.push_back(1.0);
  }
  return grid;
}

Result<std::string> SweepOrchestrator::Run(const SweepGrid& grid,
                                           int workers) const {
  // Every cell steps `hours` with the snapshot's cadences (the policy axis
  // changes none), so one probe child bounds them all before any cell runs.
  TelemetryContext probe;
  const Result<SimSession> child = service_->RestoreChild(&probe);
  if (!child.ok()) {
    return Error{"sweep cell restore failed: " + child.error()};
  }
  const Result<bool> bounded =
      service_->CheckRunCadences(child.value().config(), grid.hours);
  if (!bounded.ok()) {
    return Error{"sweep refused: " + bounded.error()};
  }
  // Flatten the axes into canonical cell order: policy outermost, then
  // fail-fraction, overcommit-target, intensity. results[i] belongs to cell
  // i forever; workers race only over *which* cell to run next, never over
  // where a result lands.
  struct Cell {
    PlacementPolicy policy;
    double fail_fraction;
    double overcommit_target;
    double intensity;
  };
  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(grid.Cells()));
  for (PlacementPolicy policy : grid.policies) {
    for (double fail : grid.fail_fractions) {
      for (double oc : grid.overcommit_targets) {
        for (double intensity : grid.intensities) {
          cells.push_back(Cell{policy, fail, oc, intensity});
        }
      }
    }
  }

  std::vector<std::string> lines(cells.size());
  std::vector<std::string> errors(cells.size());
  const WhatIfService& service = *service_;
  const auto run_cell = [&](int64_t i) {
    const Cell& cell = cells[static_cast<size_t>(i)];
    Result<std::string> line =
        RunCell(service, grid, cell.policy, cell.fail_fraction,
                cell.overcommit_target, cell.intensity);
    if (line.ok()) {
      lines[static_cast<size_t>(i)] = line.value();
    } else {
      errors[static_cast<size_t>(i)] = line.error();
    }
  };
  const int64_t n = static_cast<int64_t>(cells.size());
  ParallelFor(n, workers, run_cell);
  for (int64_t i = 0; i < n; ++i) {
    if (!errors[static_cast<size_t>(i)].empty()) {
      return Error{"sweep cell " + std::to_string(i) + " failed: " +
                   errors[static_cast<size_t>(i)]};
    }
  }

  std::string out = "# sweep policies=" + std::to_string(grid.policies.size()) +
                    " fail=" + std::to_string(grid.fail_fractions.size()) +
                    " overcommit=" + std::to_string(grid.overcommit_targets.size()) +
                    " intensity=" + std::to_string(grid.intensities.size()) +
                    " hours=" + JsonNumber(grid.hours) + "\n";
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  out += "# sweep cells=" + std::to_string(cells.size()) + " fnv1a64=" +
         Hex16(SnapshotFnv1a64(out.data(), out.size())) + "\n";
  return out;
}

}  // namespace defl

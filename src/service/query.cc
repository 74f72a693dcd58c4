#include "src/service/query.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/common/cadence.h"
#include "src/common/text_parse.h"

namespace defl {

namespace {

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// The keys each kind accepts; anything else is an explicit error so a typo
// ("coun=5") can never silently fall back to a default.
const std::unordered_set<std::string>& KeysFor(QueryKind kind) {
  static const std::unordered_set<std::string> place = {
      "count", "cpu", "mem", "disk", "net", "prio", "hours"};
  static const std::unordered_set<std::string> fail = {"fraction", "seed",
                                                       "hours"};
  static const std::unordered_set<std::string> overcommit = {
      "target", "cpu", "mem", "disk", "net", "prio", "limit", "hours"};
  static const std::unordered_set<std::string> run = {"hours"};
  static const std::unordered_set<std::string> slo = {
      "p99", "fraction", "policy", "period", "hours"};
  switch (kind) {
    case QueryKind::kPlace:
      return place;
    case QueryKind::kFail:
      return fail;
    case QueryKind::kOvercommit:
      return overcommit;
    case QueryKind::kRun:
      return run;
    case QueryKind::kSlo:
      return slo;
  }
  return run;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPlace:
      return "place";
    case QueryKind::kFail:
      return "fail";
    case QueryKind::kOvercommit:
      return "overcommit";
    case QueryKind::kRun:
      return "run";
    case QueryKind::kSlo:
      return "slo";
  }
  return "unknown";
}

Result<WhatIfQuery> ParseQuery(const std::string& line) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Error{
        "empty query (expected a kind: place, fail, overcommit, run, slo)"};
  }

  WhatIfQuery query;
  const std::string& kind = tokens[0];
  if (kind == "place") {
    query.kind = QueryKind::kPlace;
  } else if (kind == "fail") {
    query.kind = QueryKind::kFail;
  } else if (kind == "overcommit") {
    query.kind = QueryKind::kOvercommit;
  } else if (kind == "run") {
    query.kind = QueryKind::kRun;
  } else if (kind == "slo") {
    query.kind = QueryKind::kSlo;
  } else {
    return Error{"unknown query kind '" + kind +
                 "' (expected place, fail, overcommit, run, or slo)"};
  }

  const std::unordered_set<std::string>& allowed = KeysFor(query.kind);
  std::unordered_map<std::string, std::string> fields;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      return Error{"malformed field '" + token + "' in " + kind +
                   " query (expected key=value)"};
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (allowed.count(key) == 0) {
      return Error{"unknown key '" + key + "' for " + kind + " query"};
    }
    if (!fields.emplace(key, value).second) {
      return Error{"duplicate key '" + key + "' in " + kind + " query"};
    }
  }

  // Typed extraction; every key already passed the kind's allow-list above,
  // so these helpers only have to validate the value text.
  auto has = [&fields](const char* key) { return fields.count(key) != 0; };
  auto f64 = [&fields, &kind](const char* key, double* out) -> Result<bool> {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      return true;
    }
    if (!ParseDouble(it->second, out)) {
      return Error{"cannot parse " + std::string(key) + "='" + it->second +
                   "' in " + kind + " query as a number"};
    }
    return true;
  };
  auto i64 = [&fields, &kind](const char* key, int64_t* out) -> Result<bool> {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      return true;
    }
    if (!ParseInt64(it->second, out)) {
      return Error{"cannot parse " + std::string(key) + "='" + it->second +
                   "' in " + kind + " query as an integer"};
    }
    return true;
  };

  double cpu = 0.0, mem = 0.0, disk = 0.0, net = 0.0;
  for (const auto& step : {f64("cpu", &cpu), f64("mem", &mem),
                           f64("disk", &disk), f64("net", &net),
                           f64("fraction", &query.fraction),
                           f64("target", &query.target),
                           f64("p99", &query.slo_p99_ms),
                           f64("period", &query.slo_period_s),
                           f64("hours", &query.hours)}) {
    if (!step.ok()) {
      return Error{step.error()};
    }
  }
  for (const auto& step : {i64("count", &query.count), i64("limit", &query.limit)}) {
    if (!step.ok()) {
      return Error{step.error()};
    }
  }
  if (has("seed")) {
    if (!ParseUint64(fields.at("seed"), &query.seed)) {
      return Error{"cannot parse seed='" + fields.at("seed") + "' in " + kind +
                   " query as an unsigned integer"};
    }
  }
  if (has("prio")) {
    const std::string& prio = fields.at("prio");
    if (prio == "low") {
      query.priority = VmPriority::kLow;
    } else if (prio == "high") {
      query.priority = VmPriority::kHigh;
    } else {
      return Error{"bad prio='" + prio + "' in " + kind +
                   " query (expected low or high)"};
    }
  }
  if (has("policy")) {
    const std::string& policy = fields.at("policy");
    if (policy == "slo") {
      query.slo_policy = 1;
    } else if (policy == "uniform") {
      query.slo_policy = 0;
    } else {
      return Error{"bad policy='" + policy + "' in " + kind +
                   " query (expected slo or uniform)"};
    }
  }
  query.shape = ResourceVector(cpu, mem, disk, net);

  // Kind-specific requirements and ranges.
  if (query.hours < 0.0) {
    return Error{kind + " query hours must be >= 0 (got " +
                 std::to_string(query.hours) + ")"};
  }
  switch (query.kind) {
    case QueryKind::kPlace:
      if (!has("count")) {
        return Error{"place query requires count="};
      }
      if (query.count < 1) {
        return Error{"place query count must be >= 1 (got " +
                     std::to_string(query.count) + ")"};
      }
      if (query.count > kMaxQueryLaunches) {
        return Error{"place query count=" + fields.at("count") + " exceeds the cap of " +
                     std::to_string(kMaxQueryLaunches) + " launches per query"};
      }
      if (!has("cpu") || cpu <= 0.0) {
        return Error{"place query requires cpu= > 0"};
      }
      break;
    case QueryKind::kFail:
      if (!has("fraction")) {
        return Error{"fail query requires fraction="};
      }
      if (query.fraction < 0.0 || query.fraction > 1.0) {
        return Error{"fail query fraction must be in [0, 1] (got " +
                     std::to_string(query.fraction) + ")"};
      }
      break;
    case QueryKind::kOvercommit:
      if (!has("target")) {
        return Error{"overcommit query requires target="};
      }
      if (query.target <= 0.0) {
        return Error{"overcommit query target must be > 0 (got " +
                     std::to_string(query.target) + ")"};
      }
      if (!has("cpu") || cpu <= 0.0) {
        return Error{"overcommit query requires cpu= > 0"};
      }
      if (query.limit < 1) {
        return Error{"overcommit query limit must be >= 1 (got " +
                     std::to_string(query.limit) + ")"};
      }
      if (query.limit > kMaxQueryLaunches) {
        return Error{"overcommit query limit=" + fields.at("limit") +
                     " exceeds the cap of " + std::to_string(kMaxQueryLaunches) +
                     " launches per query"};
      }
      break;
    case QueryKind::kRun:
      if (!has("hours") || query.hours <= 0.0) {
        return Error{"run query requires hours= > 0"};
      }
      break;
    case QueryKind::kSlo:
      if (!has("hours") || query.hours <= 0.0) {
        return Error{"slo query requires hours= > 0"};
      }
      if (has("p99") && query.slo_p99_ms <= 0.0) {
        return Error{"slo query p99 must be > 0 (got " +
                     std::to_string(query.slo_p99_ms) + ")"};
      }
      if (has("fraction")) {
        if (query.fraction < 0.0 || query.fraction > 1.0) {
          return Error{"slo query fraction must be in [0, 1] (got " +
                       std::to_string(query.fraction) + ")"};
        }
        query.mix_fraction = query.fraction;
      }
      if (has("period")) {
        if (query.slo_period_s <= 0.0) {
          return Error{"slo query period must be > 0 (got " +
                       std::to_string(query.slo_period_s) + ")"};
        }
        // Bounds the work one query line can demand of the service. Without
        // period= the snapshot's own control period applies, so only period=
        // can raise the count past what the snapshot's run already does.
        const double ticks = query.hours * 3600.0 / query.slo_period_s;
        if (!(ticks <= static_cast<double>(kMaxCadenceTicks))) {  // also rejects NaN
          return Error{"slo query hours=" + fields.at("hours") + " with period=" +
                       fields.at("period") + " asks for " + std::to_string(ticks) +
                       " control ticks (max " + std::to_string(kMaxCadenceTicks) +
                       "); raise period= or lower hours="};
        }
      }
      break;
  }
  if (mem < 0.0 || disk < 0.0 || net < 0.0) {
    return Error{kind + " query shape dimensions must be >= 0"};
  }
  return query;
}

Result<std::vector<WhatIfQuery>> ParseQueryScript(const std::string& text) {
  std::vector<WhatIfQuery> queries;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip a trailing CR (scripts may arrive with DOS endings) and skip
    // blank/comment lines.
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    Result<WhatIfQuery> query = ParseQuery(line);
    if (!query.ok()) {
      return Error{"query script line " + std::to_string(line_number) + ": " +
                   query.error()};
    }
    queries.push_back(query.value());
  }
  if (queries.empty()) {
    return Error{"query script contains no queries"};
  }
  return queries;
}

}  // namespace defl

#include "src/faults/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/atomic_file.h"
#include "src/common/text_parse.h"

namespace defl {
namespace {

constexpr const char* kHeaderTag = "faultplan/1";

// Integers are written as numbers and must be integral; ids and counts stay
// within the range a double holds exactly.
Result<int64_t> ParseInteger(const std::string& value, const std::string& context) {
  double parsed = 0.0;
  if (!ParseDouble(value, &parsed)) {
    return Error{"bad numeric value in '" + context + "'"};
  }
  if (parsed != std::floor(parsed) || std::abs(parsed) > 9.0e15) {
    return Error{"expected an integer in '" + context + "'"};
  }
  return static_cast<int64_t>(parsed);
}

// Splits "key=value"; returns false on malformed tokens.
bool SplitKeyValue(const std::string& token, std::string* key, std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

std::string FormatDouble(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kAgentUnresponsive:
      return "agent-unresponsive";
    case FaultKind::kAgentSlow:
      return "agent-slow";
    case FaultKind::kAgentShortDelivery:
      return "agent-short";
    case FaultKind::kWireDrop:
      return "wire-drop";
    case FaultKind::kWireCorrupt:
      return "wire-corrupt";
    case FaultKind::kUnplugPartial:
      return "unplug-partial";
    case FaultKind::kHvLatencySpike:
      return "hv-latency-spike";
    case FaultKind::kServerDegrade:
      return "server-degrade";
    case FaultKind::kServerCrash:
      return "server-crash";
    case FaultKind::kServerRecover:
      return "server-recover";
  }
  return "?";
}

Result<FaultKind> FaultKindFromName(const std::string& name) {
  for (int i = 0; i < kNumFaultKinds; ++i) {
    const FaultKind kind = static_cast<FaultKind>(i);
    if (name == FaultKindName(kind)) {
      return kind;
    }
  }
  return Error{"unknown fault kind: '" + name + "'"};
}

bool IsServerEventKind(FaultKind kind) {
  return kind == FaultKind::kServerDegrade || kind == FaultKind::kServerCrash ||
         kind == FaultKind::kServerRecover;
}

namespace {

// Site scopes intersect when either side is the -1 wildcard or the ids match.
bool SiteScopesIntersect(int64_t a, int64_t b) {
  return a == -1 || b == -1 || a == b;
}

// Two rules of the same kind aimed at an intersecting site are in conflict
// when they could fire together: for scheduled server events that means the
// same instant (a duplicate crash/recover), for windowed mechanism faults an
// overlapping [start, end] (the probabilities would silently compound).
bool RulesConflict(const FaultRule& a, const FaultRule& b) {
  if (a.kind != b.kind || !SiteScopesIntersect(a.vm, b.vm) ||
      !SiteScopesIntersect(a.server, b.server)) {
    return false;
  }
  if (IsServerEventKind(a.kind)) {
    return a.start_s == b.start_s;
  }
  return std::max(a.start_s, b.start_s) <= std::min(a.end_s, b.end_s);
}

}  // namespace

Result<FaultPlan> ParseFaultPlan(const std::string& text) {
  FaultPlan plan;
  std::vector<int> rule_lines;  // source line of each accepted rule
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string where = "line " + std::to_string(line_no);
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first) || first[0] == '#') {
      continue;  // blank or comment
    }
    if (!saw_header) {
      if (first != kHeaderTag) {
        return Error{where + ": expected '" + kHeaderTag + "' header, got '" +
                     first + "'"};
      }
      saw_header = true;
      std::string token;
      while (tokens >> token) {
        std::string key, value;
        if (!SplitKeyValue(token, &key, &value) || key != "seed") {
          return Error{where + ": bad header token '" + token + "'"};
        }
        const Result<int64_t> seed = ParseInteger(value, token);
        if (!seed.ok()) {
          return Error{where + ": " + seed.error()};
        }
        plan.seed = static_cast<uint64_t>(seed.value());
      }
      continue;
    }
    if (first != "rule") {
      return Error{where + ": expected 'rule', got '" + first + "'"};
    }
    FaultRule rule;
    bool have_kind = false;
    std::string token;
    while (tokens >> token) {
      std::string key, value;
      if (!SplitKeyValue(token, &key, &value)) {
        return Error{where + ": malformed token '" + token + "'"};
      }
      if (key == "kind") {
        const Result<FaultKind> kind = FaultKindFromName(value);
        if (!kind.ok()) {
          return Error{where + ": " + kind.error()};
        }
        rule.kind = kind.value();
        have_kind = true;
      } else if (key == "vm" || key == "server" || key == "max") {
        const Result<int64_t> parsed = ParseInteger(value, token);
        if (!parsed.ok()) {
          return Error{where + ": " + parsed.error()};
        }
        (key == "vm" ? rule.vm : key == "server" ? rule.server : rule.max_count) =
            parsed.value();
      } else if (key == "p" || key == "magnitude" || key == "start" ||
                 key == "end" || key == "at") {
        double parsed = 0.0;
        if (!ParseDouble(value, &parsed)) {
          return Error{where + ": bad numeric value in '" + token + "'"};
        }
        if (key == "p") {
          rule.probability = parsed;
        } else if (key == "magnitude") {
          rule.magnitude = parsed;
        } else if (key == "start") {
          rule.start_s = parsed;
        } else if (key == "end") {
          rule.end_s = parsed;
        } else {  // at
          rule.start_s = parsed;
          rule.end_s = parsed;
        }
      } else {
        return Error{where + ": unknown key '" + key + "'"};
      }
    }
    if (!have_kind) {
      return Error{where + ": rule is missing kind="};
    }
    if (rule.probability < 0.0 || rule.probability > 1.0) {
      return Error{where + ": probability must be in [0, 1]"};
    }
    if (rule.magnitude < 0.0) {
      return Error{where + ": magnitude must be >= 0"};
    }
    if (rule.end_s < rule.start_s) {
      return Error{where + ": end before start (duration would be negative)"};
    }
    if (rule.start_s < 0.0) {
      return Error{where + ": start must be >= 0"};
    }
    if (rule.vm < -1) {
      return Error{where + ": vm must be -1 (any) or a VM id >= 0"};
    }
    if (rule.server < -1) {
      return Error{where + ": server must be -1 (any) or a server id >= 0"};
    }
    if (rule.max_count < -1 || rule.max_count == 0) {
      return Error{where + ": max must be -1 (unlimited) or >= 1 "
                   "(max=0 would disable the rule; delete it instead)"};
    }
    if (IsServerEventKind(rule.kind) && rule.vm >= 0) {
      return Error{where + ": kind " + FaultKindName(rule.kind) +
                   " targets servers; vm= does not apply"};
    }
    if (!IsServerEventKind(rule.kind) && rule.end_s == rule.start_s) {
      return Error{where + ": zero-duration window can never fire for kind " +
                   FaultKindName(rule.kind) +
                   " (at= schedules server events; use start=/end= here)"};
    }
    for (size_t i = 0; i < plan.rules.size(); ++i) {
      if (RulesConflict(plan.rules[i], rule)) {
        return Error{
            where + ": rule conflicts with the rule at line " +
            std::to_string(rule_lines[i]) +
            (IsServerEventKind(rule.kind)
                 ? " (same kind scheduled at the same time for an "
                   "overlapping server scope)"
                 : " (same kind with overlapping windows and site scopes; "
                   "the probabilities would compound)")};
      }
    }
    plan.rules.push_back(rule);
    rule_lines.push_back(line_no);
  }
  if (!saw_header) {
    return Error{"missing '" + std::string(kHeaderTag) + "' header"};
  }
  return plan;
}

std::string EncodeFaultPlan(const FaultPlan& plan) {
  std::ostringstream os;
  os << kHeaderTag << " seed=" << plan.seed << "\n";
  for (const FaultRule& rule : plan.rules) {
    os << "rule kind=" << FaultKindName(rule.kind) << " vm=" << rule.vm
       << " server=" << rule.server << " p=" << FormatDouble(rule.probability)
       << " magnitude=" << FormatDouble(rule.magnitude)
       << " start=" << FormatDouble(rule.start_s);
    if (rule.end_s < FaultRule::kNoEnd) {
      os << " end=" << FormatDouble(rule.end_s);
    }
    os << " max=" << rule.max_count << "\n";
  }
  return os.str();
}

Result<FaultPlan> LoadFaultPlanFile(const std::string& path) {
  const Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    return Error{text.error()};
  }
  return ParseFaultPlan(text.value());
}

}  // namespace defl

#include "src/common/flags.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "src/common/text_parse.h"

namespace defl {
namespace {

std::string BoolText(bool b) { return b ? "true" : "false"; }

// Levenshtein distance, for did-you-mean suggestions on unknown flags.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
    }
  }
  return row[b.size()];
}

// Flags are registered dash-style (--metrics-out) but accepted with either
// separator (--metrics_out), gflags-style.
std::string NormalizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '_') {
      c = '-';
    }
  }
  return out;
}

}  // namespace

FlagParser::FlagParser(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagParser::AddString(const std::string& name, const std::string& help,
                           std::string* out) {
  flags_.push_back(Flag{name, help, Kind::kString, out, *out});
}

void FlagParser::AddDouble(const std::string& name, const std::string& help,
                           double* out) {
  flags_.push_back(Flag{name, help, Kind::kDouble, out, std::to_string(*out)});
}

void FlagParser::AddInt(const std::string& name, const std::string& help, int* out) {
  flags_.push_back(Flag{name, help, Kind::kInt, out, std::to_string(*out)});
}

void FlagParser::AddBool(const std::string& name, const std::string& help, bool* out) {
  flags_.push_back(Flag{name, help, Kind::kBool, out, BoolText(*out)});
}

FlagParser::Flag* FlagParser::Find(const std::string& name) {
  const std::string normalized = NormalizeName(name);
  for (Flag& flag : flags_) {
    if (NormalizeName(flag.name) == normalized) {
      return &flag;
    }
  }
  return nullptr;
}

Result<bool> FlagParser::Assign(Flag& flag, const std::string& value) {
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.out) = value;
      return true;
    case Kind::kDouble:
      if (!ParseDouble(value, static_cast<double*>(flag.out))) {
        return Error{"--" + flag.name + ": bad number '" + value + "'"};
      }
      return true;
    case Kind::kInt: {
      int64_t wide = 0;
      if (!ParseInt64(value, &wide)) {
        return Error{"--" + flag.name + ": bad integer '" + value + "'"};
      }
      if (wide < std::numeric_limits<int>::min() ||
          wide > std::numeric_limits<int>::max()) {
        return Error{"--" + flag.name + ": " + value + " is out of range (max " +
                     std::to_string(std::numeric_limits<int>::max()) + ")"};
      }
      *static_cast<int*>(flag.out) = static_cast<int>(wide);
      return true;
    }
    case Kind::kBool:
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.out) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.out) = false;
      } else {
        return Error{"--" + flag.name + ": bad boolean '" + value + "'"};
      }
      return true;
  }
  return Error{"internal: unknown flag kind"};
}

Result<std::vector<std::string>> FlagParser::Parse(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Error{Usage()};
    }
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos
                                                                   : eq - 2);
    Flag* flag = Find(name);
    if (flag == nullptr) {
      std::string message = "unknown flag --" + name;
      // Suggest the closest registered name when the typo is plausible
      // (edit distance at most 1/3 of the flag's length, minimum 2).
      size_t best_distance = std::max<size_t>(2, name.size() / 3) + 1;
      const Flag* best = nullptr;
      for (const Flag& candidate : flags_) {
        const size_t d = EditDistance(NormalizeName(name), candidate.name);
        if (d < best_distance) {
          best_distance = d;
          best = &candidate;
        }
      }
      if (best != nullptr) {
        message += " (did you mean --" + best->name + "?)";
      }
      return Error{message + "\n" + Usage()};
    }
    if (!seen.insert(NormalizeName(name)).second) {
      return Error{"--" + flag->name + " specified more than once"};
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag->kind == Kind::kBool) {
      value = "true";
    } else {
      if (i + 1 >= argc) {
        return Error{"--" + name + " needs a value"};
      }
      value = argv[++i];
    }
    const Result<bool> assigned = Assign(*flag, value);
    if (!assigned.ok()) {
      return Error{assigned.error()};
    }
    flag->set = true;
  }
  return positional;
}

bool FlagParser::WasSet(const std::string& name) const {
  const std::string normalized = NormalizeName(name);
  for (const Flag& flag : flags_) {
    if (NormalizeName(flag.name) == normalized) {
      return flag.set;
    }
  }
  return false;
}

std::string FlagParser::Usage() const {
  std::ostringstream os;
  os << description_ << "\n\nflags:\n";
  for (const Flag& flag : flags_) {
    os << "  --" << flag.name << "  " << flag.help << " (default: " << flag.default_text
       << ")\n";
  }
  return os.str();
}

}  // namespace defl

#include "src/common/text_parse.h"

#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

namespace defl {
namespace {

template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseWhole(text, &value) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseInt64(std::string_view text, int64_t* out) { return ParseWhole(text, out); }

bool ParseUint64(std::string_view text, uint64_t* out) { return ParseWhole(text, out); }

std::string Trim(std::string_view s) {
  const size_t first = s.find_first_not_of(" \t");
  if (first == std::string_view::npos) {
    return std::string();
  }
  return std::string(s.substr(first, s.find_last_not_of(" \t") - first + 1));
}

Result<std::vector<KeyValue>> ReadKeyValues(const std::string& text,
                                            const std::string& source) {
  std::vector<KeyValue> settings;
  std::map<std::string, int> first_line;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (!raw.empty() && raw.back() == '\r') {
      raw.pop_back();
    }
    const std::string line = Trim(std::string_view(raw).substr(0, raw.find('#')));
    if (line.empty()) {
      continue;
    }
    const auto fail = [&](const std::string& what) -> Result<std::vector<KeyValue>> {
      return Error{source + ":" + std::to_string(line_no) + ": " + what};
    };
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail("expected 'key = value', got '" + line + "'");
    }
    KeyValue setting{line_no, Trim(std::string_view(line).substr(0, eq)),
                     Trim(std::string_view(line).substr(eq + 1))};
    if (setting.key.empty()) {
      return fail("setting has no key before '='");
    }
    if (setting.value.empty()) {
      return fail("'" + setting.key + "' has no value");
    }
    const auto [first, fresh] = first_line.emplace(setting.key, line_no);
    if (!fresh) {
      return fail("duplicate key '" + setting.key + "' (first set on line " +
                  std::to_string(first->second) + ")");
    }
    settings.push_back(std::move(setting));
  }
  return settings;
}

}  // namespace defl

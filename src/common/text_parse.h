// The one parser for text that arrives from outside the program: CLI flags,
// workload specs, sweep grids, what-if queries, fault plans and trace CSVs
// all read their numbers and `key = value` settings through here, so every
// input accepts and rejects the same spellings.
//
// Numbers are whole-string and locale-independent (std::from_chars): no
// leading `+` or whitespace, no hex floats, no trailing garbage, nothing out
// of range. A double must also be finite -- `nan`, `inf` and overflowing
// literals like `1e999` are errors, because one non-finite duration or
// fraction turns into a run that never ends or a garbage integer cast.
// Callers keep their own keys, ranges and error wording.
#ifndef SRC_COMMON_TEXT_PARSE_H_
#define SRC_COMMON_TEXT_PARSE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace defl {

// Each returns false, leaving *out untouched, unless all of `text` is one
// in-range number of the type.
bool ParseDouble(std::string_view text, double* out);  // finite values only
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseUint64(std::string_view text, uint64_t* out);

// `s` without leading and trailing spaces and tabs.
std::string Trim(std::string_view s);

// One `key = value` setting and the 1-based line it came from.
struct KeyValue {
  int line = 0;
  std::string key;
  std::string value;
};

// Reads `key = value` text (workload specs, sweep grids). Strips a trailing
// CR, treats `#` as the start of a comment anywhere on a line, skips blank
// lines, and splits every other line at its first `=`, trimming both sides.
// A line without `=`, an empty key or value, or a key already set on an
// earlier line fails as "<source>:<line>: <what>". Settings come back in
// file order.
Result<std::vector<KeyValue>> ReadKeyValues(const std::string& text,
                                            const std::string& source);

}  // namespace defl

#endif  // SRC_COMMON_TEXT_PARSE_H_

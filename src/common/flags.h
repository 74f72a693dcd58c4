// A minimal command-line flag parser for the tools (no external
// dependencies): --name=value / --name value / --bool-flag, typed
// registration, generated usage text, and strict errors on unknown flags
// (with a nearest-name suggestion), duplicated flags, or bad values.
// Numeric values go through text_parse.h, so `--duration-h=inf` is a bad
// number, not a run that never ends.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <string>
#include <vector>

#include "src/common/result.h"

namespace defl {

class FlagParser {
 public:
  explicit FlagParser(std::string program_description);

  // Registration: `out` must outlive Parse(); it is pre-filled with the
  // current (default) value shown in the usage text.
  void AddString(const std::string& name, const std::string& help, std::string* out);
  void AddDouble(const std::string& name, const std::string& help, double* out);
  // A value outside int's range is an error naming the flag, never narrowed.
  void AddInt(const std::string& name, const std::string& help, int* out);
  // Bools: `--name` sets true, `--name=false/true` sets explicitly.
  void AddBool(const std::string& name, const std::string& help, bool* out);

  // Parses argv (skipping argv[0]). On success returns the positional
  // (non-flag) arguments. `--help` yields an error whose message is the
  // usage text. Each flag may appear at most once per invocation: a repeat
  // is an error, not a silent last-one-wins (a shell-history edit that
  // leaves two --seed values behind should fail loudly).
  Result<std::vector<std::string>> Parse(int argc, const char* const* argv);

  // True when the flag appeared on the last parsed command line (with either
  // separator style). Lets a tool distinguish a default value from an
  // explicit one -- e.g. an empty `--workload=` from no --workload at all.
  // False before Parse().
  bool WasSet(const std::string& name) const;

  std::string Usage() const;

 private:
  enum class Kind { kString, kDouble, kInt, kBool };
  struct Flag {
    std::string name;
    std::string help;
    Kind kind;
    void* out;
    std::string default_text;
    bool set = false;
  };

  Flag* Find(const std::string& name);
  Result<bool> Assign(Flag& flag, const std::string& value);

  std::string description_;
  std::vector<Flag> flags_;
};

}  // namespace defl

#endif  // SRC_COMMON_FLAGS_H_

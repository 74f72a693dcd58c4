// Shared command-line surface for the simulation tools (deflation_sim,
// spark_sim): one place registers the flags both drivers accept, with one
// help string and one error wording, so `--metrics-out` behaves identically
// everywhere. Tool-specific flags still register on flags() directly; all
// of them inherit FlagParser's strictness (unknown-flag suggestions,
// duplicate-occurrence rejection, typed value errors).
#ifndef SRC_COMMON_SIM_OPTIONS_H_
#define SRC_COMMON_SIM_OPTIONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/result.h"

namespace defl {

// The flags every simulation tool accepts.
struct SimCommonOptions {
  std::string metrics_out;   // write the metrics registry to this JSON file
  std::string trace_out;     // write the deflation event trace to this JSONL file
};

class SimOptionsParser {
 public:
  // Registers the SimCommonOptions flags up front so they appear first in
  // --help with identical wording in every tool.
  explicit SimOptionsParser(std::string program_description);

  // Register tool-specific flags here before calling Parse().
  FlagParser& flags() { return parser_; }
  const SimCommonOptions& common() const { return common_; }

  // Parses argv; on success returns positional arguments (see
  // FlagParser::Parse for --help and error semantics).
  Result<std::vector<std::string>> Parse(int argc, const char* const* argv);

 private:
  FlagParser parser_;
  SimCommonOptions common_;
};

// Usage error for flags that cannot be combined, with one wording for every
// tool: "--a and --b cannot be combined (<reason>)". Returns ok when at most
// one of the two is set.
Result<bool> RejectFlagCombination(const std::string& flag_a, bool a_set,
                                   const std::string& flag_b, bool b_set,
                                   const std::string& reason);

// ---------------------------------------------------------------------------
// WorkloadSpec: the declarative workload surface of the simulation tools.
//
// What a run simulates -- offered load, trace replay, the diurnal arrival
// model, the interactive-serving mix -- is one file
// (`deflation_sim --workload=interactive.workload`), one strict total parser,
// and one validator that owns every pairwise-exclusion rule with
// line-numbered messages.
//
// Grammar (one setting per line, read by ReadKeyValues in text_parse.h, the
// same reader sweep grids use):
//   # interactive-serving scenario
//   load = 1.8
//   duration-h = 24
//   diurnal = on
//   diurnal-period-h = 24
//   interactive = on
//   slo-p99-ms = 80
//   slo-policy = slo
//
// `key = value`, `#` comments anywhere on a line, blank lines ignored;
// unknown keys, duplicate keys, and malformed values are line-numbered
// errors. Numbers are finite (`inf` and `nan` are malformed). Booleans
// accept on/off/true/false. The struct is deliberately cluster-agnostic (plain
// scalars, hours for horizons and cycles): the tool layer maps it onto
// ClusterSimConfig.
struct WorkloadSpec {
  double load = 1.6;             // offered CPU load as a fraction of capacity
  double duration_h = 12.0;
  double low_pri_fraction = 0.6;
  uint64_t seed = 42;            // trace RNG seed
  std::string trace_file;        // replay this CSV instead of generating
  std::string fault_plan;        // inject failures from this plan file
  // Diurnal/bursty arrival generator (PR 6); off = flat-rate Poisson.
  bool diurnal = false;
  double diurnal_amplitude = 0.5;
  double diurnal_period_h = 24.0;
  double diurnal_phase_h = 0.0;
  double burst_rate_per_h = 0.0;
  double burst_duration_s = 600.0;
  double burst_multiplier = 2.0;
  uint64_t arrival_seed = 7;
  // Interactive-serving mix + SLO controller (DESIGN.md §16).
  bool interactive = false;
  double interactive_fraction = 0.3;
  uint64_t interactive_seed = 21;
  double slo_p99_ms = 100.0;
  std::string slo_policy = "slo";  // slo | uniform
  double slo_period_s = 60.0;
  double rate_rps_per_cpu = 30.0;
  double rate_amplitude = 0.6;
  double rate_period_h = 24.0;
  // Where each explicitly-set key came from: key -> 1-based source line.
  // Validation words its errors from this ("spec.workload:7: 'load' ...").
  std::map<std::string, int> provenance;

  bool Has(const std::string& key) const { return provenance.count(key) != 0; }
};

// Strict total parser for the spec grammar above. Any malformed line, value,
// unknown key, or duplicate key is a clean `source:line:` error -- never a
// crash or a silently-defaulted setting. Does NOT validate cross-key rules;
// callers run ValidateWorkloadSpec next.
Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text,
                                       const std::string& source_name);

// Every cross-key rule: pairwise exclusions (trace replay vs the arrival
// generator), gating (arrival knobs require `diurnal`, SLO knobs require
// `interactive`), range checks, and the SLO tick count (at most
// kMaxCadenceTicks over duration-h). Messages cite the offending key's
// source line.
Result<bool> ValidateWorkloadSpec(const WorkloadSpec& spec,
                                  const std::string& source_name);

}  // namespace defl

#endif  // SRC_COMMON_SIM_OPTIONS_H_

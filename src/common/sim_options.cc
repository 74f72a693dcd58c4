#include "src/common/sim_options.h"

#include <utility>

#include "src/common/cadence.h"
#include "src/common/text_parse.h"

namespace defl {
namespace {

Result<bool> ParseSpecBool(const std::string& key, const std::string& value) {
  if (value == "on" || value == "true") {
    return true;
  }
  if (value == "off" || value == "false") {
    return false;
  }
  return Error{"'" + key + "': bad boolean '" + value +
               "' (use on/off or true/false)"};
}

// Typed assignment for one `key = value` setting; unknown keys are errors.
Result<bool> AssignWorkloadKey(WorkloadSpec& spec, const std::string& key,
                               const std::string& value) {
  const struct {
    const char* name;
    double* out;
  } f64_keys[] = {
      {"load", &spec.load},
      {"duration-h", &spec.duration_h},
      {"low-pri-fraction", &spec.low_pri_fraction},
      {"diurnal-amplitude", &spec.diurnal_amplitude},
      {"diurnal-period-h", &spec.diurnal_period_h},
      {"diurnal-phase-h", &spec.diurnal_phase_h},
      {"burst-rate-per-h", &spec.burst_rate_per_h},
      {"burst-duration-s", &spec.burst_duration_s},
      {"burst-multiplier", &spec.burst_multiplier},
      {"interactive-fraction", &spec.interactive_fraction},
      {"slo-p99-ms", &spec.slo_p99_ms},
      {"slo-period-s", &spec.slo_period_s},
      {"rate-rps-per-cpu", &spec.rate_rps_per_cpu},
      {"rate-amplitude", &spec.rate_amplitude},
      {"rate-period-h", &spec.rate_period_h},
  };
  for (const auto& entry : f64_keys) {
    if (key == entry.name) {
      if (!ParseDouble(value, entry.out)) {
        return Error{"'" + key + "': bad number '" + value + "'"};
      }
      return true;
    }
  }
  const struct {
    const char* name;
    uint64_t* out;
  } u64_keys[] = {
      {"seed", &spec.seed},
      {"arrival-seed", &spec.arrival_seed},
      {"interactive-seed", &spec.interactive_seed},
  };
  for (const auto& entry : u64_keys) {
    if (key == entry.name) {
      if (!ParseUint64(value, entry.out)) {
        return Error{"'" + key + "': bad unsigned integer '" + value + "'"};
      }
      return true;
    }
  }
  const struct {
    const char* name;
    bool* out;
  } bool_keys[] = {
      {"diurnal", &spec.diurnal},
      {"interactive", &spec.interactive},
  };
  for (const auto& entry : bool_keys) {
    if (key == entry.name) {
      const Result<bool> parsed = ParseSpecBool(key, value);
      if (!parsed.ok()) {
        return Error{parsed.error()};
      }
      *entry.out = parsed.value();
      return true;
    }
  }
  const struct {
    const char* name;
    std::string* out;
  } string_keys[] = {
      {"trace-file", &spec.trace_file},
      {"fault-plan", &spec.fault_plan},
      {"slo-policy", &spec.slo_policy},
  };
  for (const auto& entry : string_keys) {
    if (key == entry.name) {
      *entry.out = value;
      return true;
    }
  }
  return Error{"unknown key '" + key + "'"};
}

// "source:line: 'key'", so validation errors point at the offending line
// ("source: 'key'" for a key the spec left at its default).
std::string KeyWhere(const WorkloadSpec& spec, const std::string& source,
                     const std::string& key) {
  const auto it = spec.provenance.find(key);
  const std::string line =
      it == spec.provenance.end() ? "" : ":" + std::to_string(it->second);
  return source + line + ": '" + key + "'";
}

}  // namespace

SimOptionsParser::SimOptionsParser(std::string program_description)
    : parser_(std::move(program_description)) {
  parser_.AddString("metrics-out", "write the metrics registry to this JSON file",
                    &common_.metrics_out);
  parser_.AddString("trace-out", "write the deflation event trace to this JSONL file",
                    &common_.trace_out);
}

Result<std::vector<std::string>> SimOptionsParser::Parse(int argc,
                                                         const char* const* argv) {
  return parser_.Parse(argc, argv);
}

Result<bool> RejectFlagCombination(const std::string& flag_a, bool a_set,
                                   const std::string& flag_b, bool b_set,
                                   const std::string& reason) {
  if (a_set && b_set) {
    return Error{"--" + flag_a + " and --" + flag_b + " cannot be combined (" +
                 reason + ")"};
  }
  return true;
}

Result<WorkloadSpec> ParseWorkloadSpec(const std::string& text,
                                       const std::string& source_name) {
  const Result<std::vector<KeyValue>> settings = ReadKeyValues(text, source_name);
  if (!settings.ok()) {
    return Error{settings.error()};
  }
  if (settings.value().empty()) {
    return Error{source_name + ": workload spec has no settings"};
  }
  WorkloadSpec spec;
  for (const KeyValue& setting : settings.value()) {
    const Result<bool> assigned = AssignWorkloadKey(spec, setting.key, setting.value);
    if (!assigned.ok()) {
      return Error{source_name + ":" + std::to_string(setting.line) + ": " +
                   assigned.error()};
    }
    spec.provenance.emplace(setting.key, setting.line);
  }
  return spec;
}

Result<bool> ValidateWorkloadSpec(const WorkloadSpec& spec,
                                  const std::string& source_name) {
  const auto where = [&](const std::string& key) {
    return KeyWhere(spec, source_name, key);
  };
  const auto cannot_combine = [&](const std::string& a, const std::string& b,
                                  const std::string& reason) -> Result<bool> {
    return Error{where(a) + " and " + where(b) + " cannot be combined (" +
                 reason + ")"};
  };

  // Pairwise exclusions: a replayed trace carries its own arrival process,
  // so the generator family and its knobs cannot also be set.
  static const char* const kArrivalKnobs[] = {
      "diurnal-amplitude", "diurnal-period-h",  "diurnal-phase-h",
      "burst-rate-per-h",  "burst-duration-s",  "burst-multiplier",
      "arrival-seed",
  };
  if (!spec.trace_file.empty() && spec.diurnal) {
    return cannot_combine("trace-file", "diurnal",
                          "a replayed trace carries its own arrival times");
  }
  for (const char* knob : kArrivalKnobs) {
    if (!spec.Has(knob)) {
      continue;
    }
    if (!spec.trace_file.empty()) {
      return cannot_combine("trace-file", knob,
                            "a replayed trace carries its own arrival times");
    }
    if (!spec.diurnal) {
      return Error{where(knob) +
                   " requires diurnal (the flat-rate Poisson generator "
                   "ignores it)"};
    }
  }
  // SLO knobs are meaningless without the interactive mix; a spec that sets
  // them with `interactive` off is a mistake, not a request.
  static const char* const kSloKnobs[] = {
      "interactive-fraction", "interactive-seed", "slo-p99-ms",
      "slo-policy",           "slo-period-s",     "rate-rps-per-cpu",
      "rate-amplitude",       "rate-period-h",
  };
  for (const char* knob : kSloKnobs) {
    if (spec.Has(knob) && !spec.interactive) {
      return Error{where(knob) + " requires interactive"};
    }
  }

  if (spec.load <= 0.0) {
    return Error{where("load") + " must be positive"};
  }
  if (spec.duration_h <= 0.0) {
    return Error{where("duration-h") + " must be positive"};
  }
  if (spec.low_pri_fraction < 0.0 || spec.low_pri_fraction > 1.0) {
    return Error{where("low-pri-fraction") + " must be in [0, 1]"};
  }
  if (spec.diurnal_amplitude < 0.0 || spec.diurnal_amplitude > 1.0) {
    return Error{where("diurnal-amplitude") + " must be in [0, 1]"};
  }
  if (spec.diurnal_period_h <= 0.0) {
    return Error{where("diurnal-period-h") + " must be positive"};
  }
  if (spec.burst_rate_per_h < 0.0) {
    return Error{where("burst-rate-per-h") + " must be non-negative"};
  }
  if (spec.burst_duration_s < 0.0) {
    return Error{where("burst-duration-s") + " must be non-negative"};
  }
  if (spec.burst_multiplier < 0.0) {
    return Error{where("burst-multiplier") + " must be non-negative"};
  }
  if (spec.interactive_fraction < 0.0 || spec.interactive_fraction > 1.0) {
    return Error{where("interactive-fraction") + " must be in [0, 1]"};
  }
  if (spec.slo_p99_ms <= 0.0) {
    return Error{where("slo-p99-ms") + " must be positive"};
  }
  if (spec.slo_policy != "slo" && spec.slo_policy != "uniform") {
    return Error{where("slo-policy") + " must be 'slo' or 'uniform' (got '" +
                 spec.slo_policy + "')"};
  }
  if (spec.slo_period_s <= 0.0) {
    return Error{where("slo-period-s") + " must be positive"};
  }
  // SLO control ticks over the run (none without the interactive mix).
  const Result<bool> slo_ticks =
      CheckCadence(where("slo-period-s"), spec.interactive ? spec.slo_period_s : 0.0,
                   spec.duration_h * 3600.0);
  if (!slo_ticks.ok()) {
    return slo_ticks;
  }
  if (spec.rate_rps_per_cpu < 0.0) {
    return Error{where("rate-rps-per-cpu") + " must be non-negative"};
  }
  if (spec.rate_amplitude < 0.0 || spec.rate_amplitude > 1.0) {
    return Error{where("rate-amplitude") + " must be in [0, 1]"};
  }
  if (spec.rate_period_h <= 0.0) {
    return Error{where("rate-period-h") + " must be positive"};
  }
  return true;
}

}  // namespace defl

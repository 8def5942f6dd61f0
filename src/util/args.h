// Tiny command-line flag parser for examples and bench binaries.
//
// Supports --name=value and --name value forms plus boolean --flag.
// Unknown flags are an error so typos in experiment sweeps fail loudly.
#pragma once

#include <cfloat>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace odr {

class ArgParser {
 public:
  ArgParser(std::string program_description);

  // Declares a flag with a default; returns *this for chaining.
  ArgParser& flag(const std::string& name, const std::string& default_value,
                  const std::string& help);

  // Parses argv. Returns false (and prints usage) on error or --help.
  bool parse(int argc, char** argv);

  std::string get(const std::string& name) const;
  // Numeric getters parse the whole token and accept only finite values
  // within [min_value, max_value]; anything else (empty, "abc", "40x",
  // "nan", out of range) prints the flag and its value and exits with
  // status 1. Count flags pass their lower bound (e.g. 1 for --files).
  std::int64_t get_int(
      const std::string& name,
      std::int64_t min_value = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max_value = std::numeric_limits<std::int64_t>::max()) const;
  double get_double(const std::string& name, double min_value = -DBL_MAX,
                    double max_value = DBL_MAX) const;
  bool get_bool(const std::string& name) const;

  std::string usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace odr

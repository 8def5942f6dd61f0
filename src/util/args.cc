#include "util/args.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace odr {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::flag(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  flags_[name] = Flag{default_value, help, std::nullopt};
  return *this;
}

bool ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s",
                   arg.c_str(), usage().c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", name.c_str(),
                   usage().c_str());
      return false;
    }
    if (!has_value) {
      // --name value, unless the next token is another flag (boolean form).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::fprintf(stderr, "internal error: undeclared flag --%s\n", name.c_str());
    std::abort();
  }
  return it->second.value.value_or(it->second.default_value);
}

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& need) {
  std::fprintf(stderr, "bad --%s value '%s': need %s\n", name.c_str(),
               value.c_str(), need.c_str());
  std::exit(1);
}

// The shortest text that parses back to exactly `x`, so a printed bound is
// the bound itself rather than a six-digit rounding of it.
std::string shortest(double x) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, result.ptr);
}

}  // namespace

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t min_value,
                                std::int64_t max_value) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE ||
      x < min_value || x > max_value) {
    std::ostringstream need;
    need << "an integer";
    if (min_value > std::numeric_limits<std::int64_t>::min()) {
      need << " >= " << min_value;
    }
    if (max_value < std::numeric_limits<std::int64_t>::max()) {
      need << (min_value > std::numeric_limits<std::int64_t>::min()
                   ? " and <= "
                   : " <= ")
           << max_value;
    }
    bad_value(name, v, need.str());
  }
  return x;
}

double ArgParser::get_double(const std::string& name, double min_value,
                             double max_value) const {
  const std::string v = get(name);
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE ||
      !std::isfinite(x) || !(x >= min_value) || !(x <= max_value)) {
    std::ostringstream need;
    need << "a finite number";
    if (min_value > -DBL_MAX) need << " >= " << shortest(min_value);
    if (max_value < DBL_MAX) {
      need << (min_value > -DBL_MAX ? " and <= " : " <= ")
           << shortest(max_value);
    }
    bad_value(name, v, need.str());
  }
  return x;
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& [name, f] : flags_) {
    os << "  --" << name << " (default: " << f.default_value << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace odr

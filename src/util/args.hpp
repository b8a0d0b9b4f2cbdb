// Minimal command-line flag parsing for the example binaries and the CLI.
//
// Grammar: positional words and `--flag`, `--flag value`, `--flag=value`.
// A flag followed by another flag (or by nothing) is boolean.  Flags may
// appear once; repeats keep the last value.  No abbreviations, no single
// dashes — small enough to audit at a glance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mcopt::util {

/// The parsers behind Args' typed getters, also for numbers that are not
/// flags (positional words, environment variables).  Each throws
/// std::invalid_argument, with a message that begins with `what`, unless
/// `text` is a whole number (no sign, junk or overflow) or a finite real
/// in [min, max].
[[nodiscard]] std::uint64_t parse_u64(
    const std::string& what, const std::string& text, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
[[nodiscard]] double parse_real(
    const std::string& what, const std::string& text, double min,
    double max = std::numeric_limits<double>::max());

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Program name (argv[0], empty when argc == 0).
  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }

  /// Words that are not flags and not flag values, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True when --name appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// The flag's value, or nullopt when absent or boolean.
  [[nodiscard]] std::optional<std::string> value(const std::string& name) const;

  /// Untyped lookups with defaults.  Throw std::invalid_argument when the
  /// flag is present but unparseable; get_int and get_double take any sign
  /// and range, so drivers use the typed getters below.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& name,
                                  long long fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Typed numeric lookups: `fallback` when --name is absent, else the
  /// value parsed by parse_u64 / parse_real within [min, max].  Throw
  /// std::invalid_argument naming the flag for a bad value and for a flag
  /// without one (`--name`, `--name=`).
  [[nodiscard]] std::uint64_t get_u64(
      const std::string& name, std::uint64_t fallback, std::uint64_t min,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] std::size_t get_count(
      const std::string& name, std::size_t fallback, std::size_t min,
      std::size_t max = std::numeric_limits<std::size_t>::max()) const {
    static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
    return get_u64(name, fallback, min, max);
  }
  [[nodiscard]] double get_real(
      const std::string& name, double fallback, double min,
      double max = std::numeric_limits<double>::max()) const;

  /// Flags that are not in `known`; callers reject typos with this.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::vector<std::string>& known) const;

 private:
  std::string program_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;  // "" = boolean presence
};

}  // namespace mcopt::util

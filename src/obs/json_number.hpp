// JSON number formatting shared by the JSONL trace encoder and the src/obs
// exporters.  Internal to src/obs: nothing outside the observability layer
// includes it.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace mcopt::obs {

/// Room write_u64() and write_double() need at `out`: the 24 characters of
/// %.17g's longest output ("-1.7976931348623157e+308") plus the NUL that
/// its snprintf fallback stores.
inline constexpr std::size_t kNumberRoom = 25;

/// Writes `value` in decimal at `out`; returns one past its last character.
// mcopt: hot
inline char* write_u64(char* out, std::uint64_t value) noexcept {
  return std::to_chars(out, out + kNumberRoom, value).ptr;
}

/// Writes exactly what %.17g prints for `value`, so it round-trips.  An
/// integral value with |value| <= 2^53 has at most 16 digits, which %.17g
/// prints as a plain integer; those (all but -0.0, printed "-0") take the
/// integer path, every other value the snprintf one.  Returns one past the
/// last character; allocation-free either way.
// mcopt: hot
inline char* write_double(char* out, double value) noexcept {
  constexpr double kExactInteger = 9007199254740992.0;  // 2^53
  if (value >= -kExactInteger && value <= kExactInteger) {
    const auto whole = static_cast<std::int64_t>(value);
    if (static_cast<double>(whole) == value &&
        (whole != 0 || !std::signbit(value))) {
      return std::to_chars(out, out + kNumberRoom, whole).ptr;
    }
  }
  const int n = std::snprintf(out, kNumberRoom, "%.17g", value);
  return out + (n > 0 ? n : 0);
}

/// Appends `value` in decimal.
inline void append_u64(std::uint64_t value, std::string& out) {
  char buf[kNumberRoom];
  out.append(buf, write_u64(buf, value));
}

/// Appends `value` as write_double() writes it.
inline void append_double(double value, std::string& out) {
  char buf[kNumberRoom];
  out.append(buf, write_double(buf, value));
}

}  // namespace mcopt::obs

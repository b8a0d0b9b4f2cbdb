// JSON number formatting shared by the src/obs exporters.  Internal to
// src/obs: nothing outside the observability layer includes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace mcopt::obs {

/// Appends `value` in decimal.
inline void append_u64(std::uint64_t value, std::string& out) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%llu",
                              static_cast<unsigned long long>(value));
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

/// Appends `value` with %.17g, so it round-trips exactly.
inline void append_double(double value, std::string& out) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", value);
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

}  // namespace mcopt::obs

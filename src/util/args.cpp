#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <system_error>

namespace mcopt::util {

namespace {

template <class T>
std::string number_text(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// from_chars takes no '+', no leading space and, for unsigned types, no
/// '-'; NaN and infinities fail the range test.
template <class T>
T parse_number(const std::string& what, const std::string& text, T min, T max,
               const char* kind) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !(v >= min && v <= max)) {
    throw std::invalid_argument(
        what + " expects " + kind +
        (max == std::numeric_limits<T>::max()
             ? " >= " + number_text(min)
             : " in [" + number_text(min) + ", " + number_text(max) + "]") +
        ", got '" + text + "'");
  }
  return v;
}

/// The flag's value; throws when --name is present without one.
std::optional<std::string> required_value(const Args& args,
                                          const std::string& name) {
  if (args.has(name) && !args.value(name)) {
    throw std::invalid_argument("--" + name + " expects a value");
  }
  return args.value(name);
}

}  // namespace

std::uint64_t parse_u64(const std::string& what, const std::string& text,
                        std::uint64_t min, std::uint64_t max) {
  return parse_number(what, text, min, max, "a whole number");
}

double parse_real(const std::string& what, const std::string& text,
                  double min, double max) {
  return parse_number(what, text, min, max, "a finite number");
}

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    if (word.rfind("--", 0) != 0 || word.size() == 2) {
      positional_.push_back(word);
      continue;
    }
    const auto eq = word.find('=');
    if (eq != std::string::npos) {
      flags_[word.substr(2, eq - 2)] = word.substr(eq + 1);
      continue;
    }
    const std::string name = word.substr(2);
    const bool next_is_value =
        i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    if (next_is_value) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "";
    }
  }
}

bool Args::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> Args::value(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  return value(name).value_or(fallback);
}

long long Args::get_int(const std::string& name, long long fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                *v + "'");
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = value(name);
  if (!v) return fallback;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects a number, got '" +
                                *v + "'");
  }
}

std::uint64_t Args::get_u64(const std::string& name, std::uint64_t fallback,
                            std::uint64_t min, std::uint64_t max) const {
  const auto v = required_value(*this, name);
  return v ? parse_u64("--" + name, *v, min, max) : fallback;
}

double Args::get_real(const std::string& name, double fallback, double min,
                      double max) const {
  const auto v = required_value(*this, name);
  return v ? parse_real("--" + name, *v, min, max) : fallback;
}

std::vector<std::string> Args::unknown_flags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace mcopt::util

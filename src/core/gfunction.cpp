#include "core/gfunction.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::core {

namespace {

constexpr double kEMinusOne = 1.718281828459045;

double clamp01(double p) noexcept {
  if (std::isnan(p)) return 1.0;  // 0/0-style limits: treat as certain accept
  return std::clamp(p, 0.0, 1.0);
}

/// Shared implementation for all paper classes; behaviour switches on the
/// class id.  Cohoon-Sahni gets its own type because it carries m.
class FormG final : public GFunction {
 public:
  FormG(GClass cls, std::vector<double> ys, std::string display_name = {})
      : cls_(cls), ys_(std::move(ys)), display_name_(std::move(display_name)) {}

  [[nodiscard]] unsigned num_temperatures() const noexcept override {
    return static_cast<unsigned>(ys_.size());
  }

  [[nodiscard]] double probability(unsigned t, double h_i,
                                   double h_j) const override {
    MCOPT_CHECK(t < ys_.size(), "temperature index out of schedule range");
    const double p = raw_probability(t, h_i, h_j);
    MCOPT_DCHECK(p >= 0.0 && p <= 1.0,
                 "acceptance probability outside [0, 1]");
    return p;
  }

 private:
  [[nodiscard]] double raw_probability(unsigned t, double h_i,
                                       double h_j) const {
    const double y = ys_[t];
    const double delta = h_j - h_i;
    switch (cls_) {
      case GClass::kMetropolis:
      case GClass::kSixTempAnnealing:
        return clamp01(std::exp(-delta / y));
      case GClass::kGOne:
        return 1.0;
      case GClass::kTwoLevel:
        return t == 0 ? 1.0 : 0.5;
      case GClass::kLinear:
      case GClass::kSixLinear:
        return clamp01(y * h_i);
      case GClass::kQuadratic:
      case GClass::kSixQuadratic:
        return clamp01(y * h_i * h_i);
      case GClass::kCubic:
      case GClass::kSixCubic:
        return clamp01(y * h_i * h_i * h_i);
      case GClass::kExponential:
      case GClass::kSixExponential:
        return clamp01((std::exp(h_i / y) - 1.0) / kEMinusOne);
      case GClass::kLinearDiff:
      case GClass::kSixLinearDiff:
        return delta <= 0.0 ? 1.0 : clamp01(y / delta);
      case GClass::kQuadraticDiff:
      case GClass::kSixQuadraticDiff:
        return delta <= 0.0 ? 1.0 : clamp01(y / (delta * delta));
      case GClass::kCubicDiff:
      case GClass::kSixCubicDiff:
        return delta <= 0.0 ? 1.0 : clamp01(y / (delta * delta * delta));
      case GClass::kExponentialDiff:
      case GClass::kSixExponentialDiff:
        return delta <= 0.0
                   ? 1.0
                   : clamp01((std::exp(y / delta) - 1.0) / kEMinusOne);
      case GClass::kThresholdAccepting:
        return delta <= y ? 1.0 : 0.0;
      case GClass::kCohoonSahni:
        break;  // handled by CohoonG
    }
    throw std::logic_error("FormG: unhandled class");
  }

 public:
  [[nodiscard]] bool always_accepts(unsigned t) const noexcept override {
    if (cls_ == GClass::kGOne) return true;
    return cls_ == GClass::kTwoLevel && t == 0;
  }

  [[nodiscard]] double temperature(unsigned t) const noexcept override {
    const bool boltzmann =
        cls_ == GClass::kMetropolis || cls_ == GClass::kSixTempAnnealing;
    return boltzmann && t < ys_.size() ? ys_[t] : 0.0;
  }

  [[nodiscard]] std::string name() const override {
    return display_name_.empty() ? g_class_name(cls_) : display_name_;
  }

 private:
  GClass cls_;
  std::vector<double> ys_;
  std::string display_name_;
};

/// [COHO83a]: g(density) = min(density / (m + 5), 0.9); k = 1.
class CohoonG final : public GFunction {
 public:
  explicit CohoonG(std::size_t num_nets) : num_nets_(num_nets) {}

  [[nodiscard]] unsigned num_temperatures() const noexcept override {
    return 1;
  }

  [[nodiscard]] double probability(unsigned t, double h_i,
                                   double /*h_j*/) const override {
    MCOPT_CHECK(t < 1, "temperature index out of schedule range");
    const double p =
        clamp01(std::min(h_i / (static_cast<double>(num_nets_) + 5.0), 0.9));
    MCOPT_DCHECK(p >= 0.0 && p <= 1.0,
                 "acceptance probability outside [0, 1]");
    return p;
  }

  [[nodiscard]] std::string name() const override {
    return g_class_name(GClass::kCohoonSahni);
  }

 private:
  std::size_t num_nets_;
};

}  // namespace

bool GFunction::always_accepts(unsigned /*t*/) const noexcept { return false; }

bool GFunction::never_accepts(unsigned /*t*/) const noexcept { return false; }

double GFunction::temperature(unsigned /*t*/) const noexcept { return 0.0; }

std::unique_ptr<GFunction> make_g(GClass cls, const GParams& params) {
  if (cls == GClass::kCohoonSahni) {
    if (params.num_nets == 0) {
      throw std::invalid_argument(
          "Cohoon-Sahni g needs the instance's net count (GParams::num_nets)");
    }
    return std::make_unique<CohoonG>(params.num_nets);
  }
  const unsigned k = g_class_k(cls);
  if (g_class_uses_scale(cls)) {
    if (!(params.scale > 0.0)) {
      throw std::invalid_argument("g scale must be positive");
    }
    if (k > 1 && !(params.ratio > 0.0)) {
      throw std::invalid_argument("g ratio must be positive");
    }
  }
  std::vector<double> ys(k, params.scale);
  for (unsigned t = 1; t < k; ++t) ys[t] = ys[t - 1] * params.ratio;
  return std::make_unique<FormG>(cls, std::move(ys));
}

std::unique_ptr<GFunction> make_annealing_g(std::vector<double> ys) {
  if (ys.empty()) throw std::invalid_argument("annealing schedule is empty");
  for (const double y : ys) {
    if (!(y > 0.0)) {
      throw std::invalid_argument("annealing schedule values must be > 0");
    }
  }
  const auto k = ys.size();
  return std::make_unique<FormG>(GClass::kSixTempAnnealing, std::move(ys),
                                 "Annealing(k=" + std::to_string(k) + ")");
}

const char* g_class_name(GClass cls) noexcept {
  switch (cls) {
    case GClass::kMetropolis: return "Metropolis";
    case GClass::kSixTempAnnealing: return "Six Temperature Annealing";
    case GClass::kGOne: return "g = 1";
    case GClass::kTwoLevel: return "Two level g";
    case GClass::kLinear: return "Linear";
    case GClass::kQuadratic: return "Quadratic";
    case GClass::kCubic: return "Cubic";
    case GClass::kExponential: return "Exponential";
    case GClass::kSixLinear: return "6 Linear";
    case GClass::kSixQuadratic: return "6 Quadratic";
    case GClass::kSixCubic: return "6 Cubic";
    case GClass::kSixExponential: return "6 Exponential";
    case GClass::kLinearDiff: return "Linear Diff";
    case GClass::kQuadraticDiff: return "Quadratic Diff";
    case GClass::kCubicDiff: return "Cubic Diff";
    case GClass::kExponentialDiff: return "Exponential Diff";
    case GClass::kSixLinearDiff: return "6 Linear Diff";
    case GClass::kSixQuadraticDiff: return "6 Quadratic Diff";
    case GClass::kSixCubicDiff: return "6 Cubic Diff";
    case GClass::kSixExponentialDiff: return "6 Exponential Diff";
    case GClass::kCohoonSahni: return "[COHO83a]";
    case GClass::kThresholdAccepting: return "Threshold Accepting";
  }
  return "?";
}

unsigned g_class_k(GClass cls) noexcept {
  switch (cls) {
    case GClass::kSixTempAnnealing:
    case GClass::kSixLinear:
    case GClass::kSixQuadratic:
    case GClass::kSixCubic:
    case GClass::kSixExponential:
    case GClass::kSixLinearDiff:
    case GClass::kSixQuadraticDiff:
    case GClass::kSixCubicDiff:
    case GClass::kSixExponentialDiff:
    case GClass::kThresholdAccepting:
      return 6;
    case GClass::kTwoLevel:
      return 2;
    default:
      return 1;
  }
}

bool g_class_uses_scale(GClass cls) noexcept {
  switch (cls) {
    case GClass::kGOne:
    case GClass::kTwoLevel:
    case GClass::kCohoonSahni:
      return false;
    default:
      return true;
  }
}

std::vector<GClass> table41_classes() {
  std::vector<GClass> out;
  out.reserve(20);
  for (int i = 1; i <= 20; ++i) out.push_back(static_cast<GClass>(i));
  return out;
}

std::vector<GClass> table42_classes() {
  return {GClass::kCohoonSahni,     GClass::kMetropolis,
          GClass::kSixTempAnnealing, GClass::kGOne,
          GClass::kTwoLevel,         GClass::kLinearDiff,
          GClass::kQuadraticDiff,    GClass::kCubicDiff,
          GClass::kExponentialDiff,  GClass::kSixLinearDiff,
          GClass::kSixQuadraticDiff, GClass::kSixCubicDiff,
          GClass::kSixExponentialDiff};
}

}  // namespace mcopt::core

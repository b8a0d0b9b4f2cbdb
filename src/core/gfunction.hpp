// The acceptance-probability functions g_temp(h(i), h(j)) of the paper, §3.
//
// A g function decides, for an uphill perturbation from the current solution
// i (cost h(i)) to a neighbour j (cost h(j) >= h(i)), the probability of
// accepting j.  The paper enumerates twenty classes (numbered 1-20 below, in
// the paper's order) plus the Cohoon-Sahni baseline from [COHO83a]:
//
//    1 Metropolis                   k=1  e^(-(h(j)-h(i))/Y1)
//    2 Six Temperature Annealing    k=6  e^(-(h(j)-h(i))/Yt)
//    3 g = 1                        k=1  1
//    4 Two Level g                  k=2  g1=1, g2=0.5
//    5 Linear                       k=1  Y1*h(i)
//    6 Quadratic                    k=1  Y1*h(i)^2
//    7 Cubic                        k=1  Y1*h(i)^3
//    8 Exponential                  k=1  (e^(h(i)/Y1)-1)/(e-1)
//    9-12 Six Temperature {Linear, Quadratic, Cubic, Exponential}  k=6
//   13 Linear Difference            k=1  Y1/(h(j)-h(i))
//   14 Quadratic Difference         k=1  Y1/(h(j)-h(i))^2
//   15 Cubic Difference             k=1  Y1/(h(j)-h(i))^3
//   16 Exponential Difference       k=1  (e^(Y1/(h(j)-h(i)))-1)/(e-1)
//   17-20 Six Temperature {...} Difference  k=6
//   21 Cohoon-Sahni [COHO83a]       k=1  min(h(i)/(m+5), 0.9)
//
// Classes 5-12 depend on the *current* cost h(i) rather than on the cost
// difference; that is faithful to the paper.  All values are clamped into
// [0, 1]; a zero difference makes the difference classes evaluate to 1
// (the limit of Y/0+), so sideways moves are always accepted by them, as by
// Metropolis.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace mcopt::core {

class GFunction {
 public:
  virtual ~GFunction() = default;

  /// k, the number of temperature levels (1, 2 or 6 for the paper's classes).
  [[nodiscard]] virtual unsigned num_temperatures() const noexcept = 0;

  /// Acceptance probability at temperature index `t` (0-based, < k) for an
  /// uphill move h_i -> h_j.  Always in [0, 1].
  [[nodiscard]] virtual double probability(unsigned t, double h_i,
                                           double h_j) const = 0;

  /// True when g is identically 1 at level `t`.  The Figure 1 runner applies
  /// the paper's counter gate (§3: uphill accepted only after 18 consecutive
  /// failures) to such levels, since a straightforward implementation would
  /// random-walk.
  [[nodiscard]] virtual bool always_accepts(unsigned t) const noexcept;

  /// True when g is identically 0 at level `t`.  The Figure 1 runner then
  /// rejects every non-improving move without drawing a random number —
  /// the quench that core::random_descent runs.
  [[nodiscard]] virtual bool never_accepts(unsigned t) const noexcept;

  /// The Boltzmann temperature Y_t at level `t`, when this class's
  /// acceptance rule is of the e^(-Δ/Y_t) family (Metropolis, Six
  /// Temperature Annealing, explicit annealing schedules); 0 otherwise.
  /// Observability uses it for the specific-heat estimate C = Var(E)/Y²
  /// — 0 means "no temperature interpretation, specific heat undefined".
  [[nodiscard]] virtual double temperature(unsigned t) const noexcept;

  /// Display name matching the paper's table rows.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's class numbering.
enum class GClass : int {
  kMetropolis = 1,
  kSixTempAnnealing = 2,
  kGOne = 3,
  kTwoLevel = 4,
  kLinear = 5,
  kQuadratic = 6,
  kCubic = 7,
  kExponential = 8,
  kSixLinear = 9,
  kSixQuadratic = 10,
  kSixCubic = 11,
  kSixExponential = 12,
  kLinearDiff = 13,
  kQuadraticDiff = 14,
  kCubicDiff = 15,
  kExponentialDiff = 16,
  kSixLinearDiff = 17,
  kSixQuadraticDiff = 18,
  kSixCubicDiff = 19,
  kSixExponentialDiff = 20,
  kCohoonSahni = 21,
  /// Extension (not in the paper): threshold accepting (Dueck & Scheuer,
  /// 1990) — accept an uphill move iff h(j) - h(i) <= Y_t.  Annealing's
  /// most cited descendant; included so the framework can contrast the
  /// paper's probabilistic rules with a deterministic one.
  kThresholdAccepting = 22,
};

/// Parameters for instantiating a g class.
struct GParams {
  /// The Y scale.  For k=1 classes this is Y1; for k=6 classes the schedule
  /// is Y_t = scale * ratio^t, t = 0..5 (Kirkpatrick's Y1=10, x0.9 schedule
  /// is scale=10, ratio=0.9).  Ignored by g=1, two-level, and Cohoon-Sahni.
  double scale = 1.0;
  double ratio = 0.9;
  /// m, the instance's net count; used only by Cohoon-Sahni (§4.2.2).
  std::size_t num_nets = 0;
};

/// Instantiates a g class.  Throws std::invalid_argument on a non-positive
/// scale/ratio for a class that uses them.
[[nodiscard]] std::unique_ptr<GFunction> make_g(GClass cls,
                                                const GParams& params = {});

/// Classic annealing acceptance e^(-(h(j)-h(i))/Y_t) with an explicit,
/// validated schedule of any length (see core/schedule.hpp for builders).
[[nodiscard]] std::unique_ptr<GFunction> make_annealing_g(
    std::vector<double> ys);

/// Paper row label for a class ("Six Temperature Annealing", "g = 1", ...).
[[nodiscard]] const char* g_class_name(GClass cls) noexcept;

/// k for a class without instantiating it.
[[nodiscard]] unsigned g_class_k(GClass cls) noexcept;

/// False for g = 1, two-level, and Cohoon-Sahni, which involve no Y_i and
/// therefore skip the §4.2.1 tuning pass.
[[nodiscard]] bool g_class_uses_scale(GClass cls) noexcept;

/// The 20 classes of Table 4.1, in row order (Cohoon-Sahni and the Goto
/// heuristic rows of that table are handled by the bench harness).
[[nodiscard]] std::vector<GClass> table41_classes();

/// The 13 Monte Carlo rows of Tables 4.2(a)-(d): the NOLA experiments
/// "ignored the g function classes 5 through 12 because of their poor
/// performance on the GOLA instances" (§4.3.1).
[[nodiscard]] std::vector<GClass> table42_classes();

}  // namespace mcopt::core

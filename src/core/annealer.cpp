#include "core/annealer.hpp"

#include <string>
#include <utility>

#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/schedule.hpp"

namespace mcopt::core {
namespace {

/// The quench limit of annealing: one level whose g is identically 0.
class QuenchG final : public GFunction {
 public:
  [[nodiscard]] unsigned num_temperatures() const noexcept override {
    return 1;
  }
  [[nodiscard]] double probability(unsigned /*t*/, double /*h_i*/,
                                   double /*h_j*/) const override {
    return 0.0;
  }
  [[nodiscard]] bool never_accepts(unsigned /*t*/) const noexcept override {
    return true;
  }
  [[nodiscard]] std::string name() const override { return "quench"; }
};

}  // namespace

RunResult simulated_annealing(Problem& problem, const AnnealOptions& options,
                              util::Rng& rng) {
  auto ys = options.schedule.empty() ? kirkpatrick_schedule()
                                     : validated_schedule(options.schedule);
  const auto g = make_annealing_g(std::move(ys));
  Figure1Options fig1;
  fig1.budget = options.budget;
  fig1.equilibrium_rejects = options.equilibrium_rejects;
  fig1.recorder = options.recorder;
  return run_figure1(problem, *g, fig1, rng);
}

RunResult random_descent(Problem& problem, std::uint64_t budget,
                         util::Rng& rng, const obs::Recorder* recorder) {
  Figure1Options options;
  options.budget = budget;
  options.recorder = recorder;
  return run_figure1(problem, QuenchG{}, options, rng);
}

}  // namespace mcopt::core

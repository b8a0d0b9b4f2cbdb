// Classic simulated annealing as a convenience wrapper.
//
// "The Metropolis adaptation combined with Kirkpatrick's several temperature
// method is called simulated annealing" (§1).  This wrapper is exactly
// run_figure1 with the annealing acceptance e^(-dh/Y_t) over a caller-chosen
// schedule; it is the entry point most users of the library want, and it is
// what the extension benches call "SA".
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "core/result.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

struct AnnealOptions {
  /// Total ticks, one per proposal; split evenly across the schedule.
  std::uint64_t budget = 30'000;
  /// Y_i schedule; defaults to Kirkpatrick's Y1=10, x0.9, k=6 ([KIRK83]).
  std::vector<double> schedule;
  /// If > 0, also advance temperature after this many consecutive rejects
  /// (the equilibrium criterion of [KIRK83]).
  std::uint64_t equilibrium_rejects = 0;
  /// Optional telemetry (src/obs), forwarded to run_figure1.
  const obs::Recorder* recorder = nullptr;
};

/// Anneals from the problem's current solution and returns the run record;
/// the best solution found is in RunResult::best_state.
[[nodiscard]] RunResult simulated_annealing(Problem& problem,
                                            const AnnealOptions& options,
                                            util::Rng& rng);

/// Pure descent baseline: repeatedly proposes random perturbations and
/// accepts only strict improvements until the budget is spent (the
/// "quench" limit of annealing; used by ablation benches).  This is
/// run_figure1 with one level whose g is identically 0, so a rejection
/// draws no random number.  The optional recorder observes the run as a
/// single stage-0 level.
[[nodiscard]] RunResult random_descent(Problem& problem, std::uint64_t budget,
                                       util::Rng& rng,
                                       const obs::Recorder* recorder = nullptr);

}  // namespace mcopt::core

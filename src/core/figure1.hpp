// The strategy of the paper's Figure 1: Metropolis-style perturb-and-test.
//
//   Step 1  i = starting solution (the caller prepares it: random, or the
//           Goto arrangement for Tables 4.2(a)/(d)); temp = 1, counter = 0.
//   Step 2  j = random perturbation of i.
//   Step 3  if h(j) - h(i) < 0: i = j, update best, counter = 0.
//   Step 4  otherwise: if counter >= n advance temperature (stop at k);
//           else accept with probability g_temp(h(i), h(j)).
//
// Three temperature-advance criteria are supported, matching the paper and
// the experiments it describes:
//   * budget slices — each of the k levels gets floor(budget/k) ticks,
//     the paper's floor(total_seconds/k)-per-temperature rule (§4.2.1);
//     always active;
//   * the counter rule of Step 4 — optional, enabled by setting
//     equilibrium_rejects > 0;
//   * the [KIRK83] acceptance criterion (§2: "terminated when ... a
//     sufficient number of random perturbations had been accepted") —
//     optional, enabled by setting equilibrium_accepts > 0.
//
// For g levels that are identically 1 (g = 1, and level 1 of two-level g) a
// straightforward implementation random-walks, so the paper's gate (§3) is
// applied: an uphill move is taken only once `gate_threshold` consecutive
// uphill proposals have accumulated since the last improvement, after which
// the gate counter resets to 1.  Levels where g is identically 0
// (GFunction::never_accepts) reject every non-improving move without an
// acceptance draw.
#pragma once

#include <cstdint>

#include "core/gfunction.hpp"
#include "core/problem.hpp"
#include "core/result.hpp"
#include "obs/recorder.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace mcopt::core {

struct Figure1Options {
  /// Total ticks; one tick per random perturbation.
  std::uint64_t budget = 30'000;
  /// Paper's gate for g == 1 levels (§3).  Must be >= 1.
  unsigned gate_threshold = 18;
  /// If > 0, the Step 4 counter rule also advances the temperature after
  /// this many consecutive rejected proposals.
  std::uint64_t equilibrium_rejects = 0;
  /// If > 0, the [KIRK83] equilibrium rule also advances the temperature
  /// after this many accepted perturbations at the current level.
  std::uint64_t equilibrium_accepts = 0;
  /// Every this many proposals, call Problem::check_invariants() (deep
  /// state verification; util/invariant.hpp).  Only active in builds with
  /// MCOPT_CHECK_INVARIANTS; 0 disables.  Consumes no randomness, so
  /// checked and unchecked builds produce identical streams.
  std::uint64_t invariant_check_interval = 4096;
  /// Optional telemetry (src/obs): the runner takes a by-value copy, so
  /// events and metrics are seed-pure per run.  Null = no observation.
  const obs::Recorder* recorder = nullptr;
};

/// Runs Figure 1 from the problem's current solution.  On return the
/// problem holds the last-visited solution (result.final_cost); the best
/// solution is in result.best_state.  Throws std::invalid_argument on a
/// zero gate_threshold.
[[nodiscard]] RunResult run_figure1(Problem& problem, const GFunction& g,
                                    const Figure1Options& options,
                                    util::Rng& rng);

}  // namespace mcopt::core

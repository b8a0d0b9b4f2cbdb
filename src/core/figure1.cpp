#include "core/figure1.hpp"

#include <stdexcept>

#include "util/invariant.hpp"

namespace mcopt::core {

RunResult run_figure1(Problem& problem, const GFunction& g,
                      const Figure1Options& options, util::Rng& rng) {
  if (options.gate_threshold == 0) {
    throw std::invalid_argument("figure1: gate_threshold must be >= 1");
  }
  const unsigned k = g.num_temperatures();
  util::WorkBudget budget{options.budget};

  RunResult result;
  result.initial_cost = problem.cost();
  result.best_cost = result.initial_cost;
  problem.snapshot_into(result.best_state);
  result.temperatures_visited = k == 0 ? 0 : 1;

  // By-value copy: gives this run a private sampling counter, so the trace
  // is a pure function of the seed regardless of which thread runs it.
  // The recorder consumes no randomness and never touches `rng`.
  obs::Recorder rec =
      options.recorder != nullptr ? *options.recorder : obs::Recorder{};
  rec.begin_run(&result.metrics, k);
  // Declare each level's Boltzmann temperature (0 for non-thermal classes)
  // so the observables layer can derive specific heat per stage.
  for (unsigned t = 0; t < k; ++t) rec.stage_temperature(t, g.temperature(t));
  obs::ProfileScope profile_scope{rec, "figure1"};
  if (k > 0) {
    rec.stage_begin(0, 0, result.initial_cost, result.best_cost,
                    obs::StageReason::kStart);
  }

  unsigned temp = 0;
  std::uint64_t reject_counter = 0;  // Step 4's `counter`
  std::uint64_t accept_counter = 0;  // the [KIRK83] equilibrium counter
  unsigned gate_counter = 0;         // the §3 gate for g == 1 levels
  double h_i = result.initial_cost;

  auto advance_temperature = [&](obs::StageReason reason) -> bool {
    // Returns false when the schedule is exhausted (temp == k in the paper).
    if (temp + 1 >= k) return false;
    ++temp;
    ++result.temperatures_visited;
    reject_counter = 0;
    accept_counter = 0;
    rec.stage_begin(temp, budget.spent(), h_i, result.best_cost, reason);
    return true;
  };

  bool schedule_exhausted = false;
  while (!budget.exhausted() && !schedule_exhausted && k > 0) {
    // Budget-slice criterion: level `temp` owns ticks up to slice_end.
    while (budget.spent() >= budget.slice_end(k, temp)) {
      if (!advance_temperature(obs::StageReason::kSlice)) {
        schedule_exhausted = true;  // unreachable with slices, kept for
        break;                      // safety against future criteria
      }
    }
    if (schedule_exhausted) break;

    // Periodic deep verification (no pending perturbation at this point).
    if constexpr (util::kInvariantsEnabled) {
      if (options.invariant_check_interval != 0 &&
          result.proposals % options.invariant_check_interval == 0) {
        if (rec.collecting_metrics()) {
          util::Stopwatch watch;
          problem.check_invariants();
          rec.invariant_check(watch.seconds());
        } else {
          problem.check_invariants();
        }
        ++result.invariants.executed;
      }
    }

    const double h_j = problem.propose(rng);
    budget.charge();
    ++result.proposals;
    result.ticks = budget.spent();
    const double delta = h_j - h_i;
    rec.proposal(temp, result.ticks, h_j, result.best_cost, delta);

    // [KIRK83] equilibrium: enough acceptances at this level.
    auto note_accept = [&]() {
      ++accept_counter;
      if (options.equilibrium_accepts > 0 &&
          accept_counter >= options.equilibrium_accepts &&
          !advance_temperature(obs::StageReason::kEquilibrium)) {
        schedule_exhausted = true;
      }
    };

    if (delta < 0.0) {
      // Step 3: strict improvement.
      problem.accept();
      ++result.accepts;
      if (reject_counter > 0) rec.patience_reset();
      h_i = h_j;
      gate_counter = 0;
      reject_counter = 0;
      rec.accept(temp, result.ticks, h_j, result.best_cost, delta);
      if (h_i < result.best_cost) {
        result.best_cost = h_i;
        problem.snapshot_into(result.best_state);
        rec.new_best(temp, result.ticks, result.best_cost);
      }
      note_accept();
      continue;
    }

    // Step 4: uphill (or sideways) proposal.
    if (options.equilibrium_rejects > 0 &&
        reject_counter >= options.equilibrium_rejects) {
      problem.reject();
      rec.reject(temp, result.ticks, h_j, result.best_cost);
      if (!advance_temperature(obs::StageReason::kPatience)) break;
      continue;
    }

    bool take = false;
    if (g.always_accepts(temp)) {
      ++gate_counter;
      if (gate_counter >= options.gate_threshold) {
        take = true;
        gate_counter = 1;  // the paper resets to 1, not 0
      }
    } else if (!g.never_accepts(temp)) {
      take = rng.next_double() < g.probability(temp, h_i, h_j);
    }

    if (take) {
      problem.accept();
      ++result.accepts;
      if (delta > 0.0) ++result.uphill_accepts;
      h_i = h_j;
      if (reject_counter > 0) rec.patience_reset();
      reject_counter = 0;
      rec.accept(temp, result.ticks, h_j, result.best_cost, delta);
      note_accept();
    } else {
      problem.reject();
      ++reject_counter;
      rec.reject(temp, result.ticks, h_j, result.best_cost);
    }
  }

  result.final_cost = problem.cost();
  profile_scope.add_ticks(result.ticks);
  rec.end_run();
  return result;
}

}  // namespace mcopt::core

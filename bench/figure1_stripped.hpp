// A hand-stripped copy of core::run_figure1 — the Figure 1 loop exactly as
// it would look with no instrumentation compiled in at all.  This is the
// timing baseline the observability overhead gates compare against
// (bench/obs_overhead.cpp, bench/metrics_overhead.cpp); both drivers
// assert it stays bit-identical in results to the real loop so the two
// cannot drift apart silently.
#pragma once

#include <cstdint>

#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/result.hpp"
#include "util/budget.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace mcopt::bench {

inline core::RunResult run_figure1_stripped(core::Problem& problem,
                                            const core::GFunction& g,
                                            const core::Figure1Options& options,
                                            util::Rng& rng) {
  const unsigned k = g.num_temperatures();
  util::WorkBudget budget{options.budget};

  core::RunResult result;
  result.initial_cost = problem.cost();
  result.best_cost = result.initial_cost;
  problem.snapshot_into(result.best_state);
  result.temperatures_visited = k == 0 ? 0 : 1;

  unsigned temp = 0;
  std::uint64_t reject_counter = 0;
  std::uint64_t accept_counter = 0;
  unsigned gate_counter = 0;
  double h_i = result.initial_cost;

  auto advance_temperature = [&]() -> bool {
    if (temp + 1 >= k) return false;
    ++temp;
    ++result.temperatures_visited;
    reject_counter = 0;
    accept_counter = 0;
    return true;
  };

  bool schedule_exhausted = false;
  while (!budget.exhausted() && !schedule_exhausted && k > 0) {
    while (budget.spent() >= budget.slice_end(k, temp)) {
      if (!advance_temperature()) {
        schedule_exhausted = true;
        break;
      }
    }
    if (schedule_exhausted) break;

    if constexpr (util::kInvariantsEnabled) {
      if (options.invariant_check_interval != 0 &&
          result.proposals % options.invariant_check_interval == 0) {
        problem.check_invariants();
        ++result.invariants.executed;
      }
    }

    const double h_j = problem.propose(rng);
    budget.charge();
    ++result.proposals;
    result.ticks = budget.spent();

    auto note_accept = [&]() {
      ++accept_counter;
      if (options.equilibrium_accepts > 0 &&
          accept_counter >= options.equilibrium_accepts &&
          !advance_temperature()) {
        schedule_exhausted = true;
      }
    };

    const double delta = h_j - h_i;
    if (delta < 0.0) {
      problem.accept();
      ++result.accepts;
      h_i = h_j;
      gate_counter = 0;
      reject_counter = 0;
      if (h_i < result.best_cost) {
        result.best_cost = h_i;
        problem.snapshot_into(result.best_state);
      }
      note_accept();
      continue;
    }

    if (options.equilibrium_rejects > 0 &&
        reject_counter >= options.equilibrium_rejects) {
      problem.reject();
      if (!advance_temperature()) break;
      continue;
    }

    bool take = false;
    if (g.always_accepts(temp)) {
      ++gate_counter;
      if (gate_counter >= options.gate_threshold) {
        take = true;
        gate_counter = 1;
      }
    } else if (!g.never_accepts(temp)) {
      take = rng.next_double() < g.probability(temp, h_i, h_j);
    }

    if (take) {
      problem.accept();
      ++result.accepts;
      if (delta > 0.0) ++result.uphill_accepts;
      h_i = h_j;
      reject_counter = 0;
      note_accept();
    } else {
      problem.reject();
      ++reject_counter;
    }
  }

  result.final_cost = problem.cost();
  return result;
}

inline bool stripped_results_match(const core::RunResult& a,
                                   const core::RunResult& b) {
  return a.best_cost == b.best_cost && a.final_cost == b.final_cost &&
         a.proposals == b.proposals && a.accepts == b.accepts &&
         a.uphill_accepts == b.uphill_accepts && a.ticks == b.ticks &&
         a.temperatures_visited == b.temperatures_visited &&
         a.best_state == b.best_state;
}

}  // namespace mcopt::bench

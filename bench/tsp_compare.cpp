// §2 extension — the Golden-Skiscim-style TSP comparison ([GOLD84], and the
// authors' own TSP runs in [NAHA84]).
//
// Claims reproduced in shape:
//   * restarted 2-opt at equal time beats simulated annealing on most
//     instances (paper: 9 of 10);
//   * a strong constructive heuristic (Stewart's CCAO stood in for by
//     convex-hull + cheapest-insertion + Or-opt) reaches its quality with a
//     tiny fraction of SA's work (paper: SA needed 20-60x the time for
//     worse results).
//
// Equal-work accounting: every tour-move evaluation is one tick, for SA
// proposals, 2-opt descents, insertion-position scans and Or-opt scans
// alike.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "tsp/construct.hpp"
#include "tsp/local_search.hpp"
#include "tsp/problem.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace mcopt;

struct SaOutcome {
  double best = 0.0;
  std::uint64_t ticks_to_target = 0;  // 0 = target never reached
};

/// Passes every call through to `inner` and, on accept(), notes the first
/// proposal count at which the running best drops to `target`.
class TargetWatch final : public core::Problem {
 public:
  TargetWatch(core::Problem& inner, double target)
      : inner_(inner), target_(target), best_(inner.cost()) {}

  [[nodiscard]] double cost() const override { return inner_.cost(); }
  double propose(util::Rng& rng) override {
    ++proposals_;
    proposed_ = inner_.propose(rng);
    return proposed_;
  }
  void accept() override {
    inner_.accept();
    if (proposed_ < best_) {
      best_ = proposed_;
      if (hit_ == 0 && best_ <= target_) hit_ = proposals_;
    }
  }
  void reject() override { inner_.reject(); }
  void descend(util::WorkBudget& budget) override { inner_.descend(budget); }
  void randomize(util::Rng& rng) override { inner_.randomize(rng); }
  [[nodiscard]] core::Snapshot snapshot() const override {
    return inner_.snapshot();
  }
  void snapshot_into(core::Snapshot& out) const override {
    inner_.snapshot_into(out);
  }
  void restore(const core::Snapshot& snap) override { inner_.restore(snap); }
  void check_invariants() const override { inner_.check_invariants(); }

  [[nodiscard]] std::uint64_t hit() const noexcept { return hit_; }

 private:
  core::Problem& inner_;
  double target_;
  double best_;
  double proposed_ = 0.0;
  std::uint64_t proposals_ = 0;
  std::uint64_t hit_ = 0;
};

/// Figure 1 annealing over an explicit schedule from a random tour,
/// recording the first tick at which the running best drops to `target`.
SaOutcome annealed_tsp(const tsp::TspInstance& inst,
                       const std::vector<double>& schedule,
                       std::uint64_t budget, double target, util::Rng& rng) {
  tsp::TspProblem tour{inst, tsp::random_order(inst.size(), rng)};
  TargetWatch watch{tour, target};
  core::Figure1Options options;
  options.budget = budget;
  const auto result = core::run_figure1(
      watch, *core::make_annealing_g(schedule), options, rng);
  return {result.best_cost, watch.hit()};
}

/// Hull + cheapest insertion + Or-opt, with its evaluation count charged
/// like Monte Carlo ticks (the insertion is the O(n^2) cached variant, and
/// the Or-opt polish gets a couple of sweeps' worth of budget — CCAO's
/// improvement pass was similarly bounded).
std::pair<double, std::uint64_t> stewart_standin(
    const tsp::TspInstance& inst) {
  const std::size_t n = inst.size();
  auto built = tsp::hull_cheapest_insertion_counted(inst);
  util::WorkBudget polish{static_cast<std::uint64_t>(3 * n) * n};
  tsp::or_opt_descent(inst, built.order, polish);
  return {tsp::tour_length(inst, built.order),
          built.evaluations + polish.spent()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver{argc, argv};
  bench::print_header(
      "TSP comparison (paper §2 / [GOLD84] / [NAHA84])",
      "10 random Euclidean instances per size; equal tick budgets; SA uses "
      "25 uniformly spaced temperatures per [GOLD84]");

  for (const std::size_t n : {std::size_t{50}, std::size_t{100}}) {
    const std::uint64_t budget = bench::scaled(n == 50 ? 300'000 : 600'000);
    std::printf("\n-- n = %zu, budget = %llu ticks per method --\n", n,
                static_cast<unsigned long long>(budget));

    util::Summary sa_len;
    util::Summary hot_len;
    util::Summary topt_len;
    util::Summary stew_len;
    util::Summary stew_ticks;
    util::Summary sa_ratio;
    util::Summary hot_ratio;
    int twoopt_beats_sa = 0;
    int twoopt_beats_hot = 0;
    int stewart_beats_sa = 0;

    for (int i = 0; i < 10; ++i) {
      util::Rng gen{util::derive_seed(bench::kSeed + 40, 100 * n + i)};
      const auto inst = tsp::TspInstance::random_euclidean(n, gen, 1000.0);

      const auto [stewart_length, stewart_cost] = stewart_standin(inst);
      stew_len.add(stewart_length);
      stew_ticks.add(static_cast<double>(stewart_cost));

      auto work_ratio = [&](const SaOutcome& sa) {
        // Paper's 20-60x claim: SA work needed to reach the constructive
        // heuristic's quality, as a multiple of the heuristic's own work
        // (capped at the budget when never reached).
        const auto ticks = sa.ticks_to_target == 0 ? budget : sa.ticks_to_target;
        return static_cast<double>(ticks) / static_cast<double>(stewart_cost);
      };

      // Tuned: ceiling matched to typical uphill deltas (~edge length).
      util::Rng sa_rng = gen.split();
      const SaOutcome sa = annealed_tsp(inst, core::uniform_schedule(250.0, 25),
                                        budget, stewart_length, sa_rng);
      sa_len.add(sa.best);
      sa_ratio.add(work_ratio(sa));

      // Hot start: the era's standard advice (begin accepting nearly every
      // uphill move), closer to how [GOLD84] configured annealing.
      util::Rng hot_rng = gen.split();
      const SaOutcome hot = annealed_tsp(
          inst, core::uniform_schedule(2500.0, 25), budget, stewart_length,
          hot_rng);
      hot_len.add(hot.best);
      hot_ratio.add(work_ratio(hot));

      util::Rng topt_rng = gen.split();
      const auto topt = tsp::restarted_two_opt(inst, budget, topt_rng);
      topt_len.add(topt.best_length);

      twoopt_beats_sa += topt.best_length < sa.best;
      twoopt_beats_hot += topt.best_length < hot.best;
      stewart_beats_sa += stewart_length < sa.best;
    }

    util::Table table;
    table.add_column("method", util::Table::Align::kLeft);
    table.add_column("mean tour length");
    table.add_column("vs best (%)");
    table.add_column("mean ticks");
    const double best_mean =
        std::min(std::min(sa_len.mean(), topt_len.mean()),
                 std::min(stew_len.mean(), hot_len.mean()));
    auto row = [&](const char* name, const util::Summary& s, double ticks) {
      table.begin_row();
      table.cell(name);
      table.cell(s.mean(), 1);
      table.cell(100.0 * (s.mean() - best_mean) / best_mean, 2);
      table.cell(static_cast<long long>(ticks));
    };
    row("SA, 25 uniform temps, tuned tau", sa_len,
        static_cast<double>(budget));
    row("SA, 25 uniform temps, hot tau", hot_len,
        static_cast<double>(budget));
    row("restarted 2-opt [LIN73]", topt_len, static_cast<double>(budget));
    row("hull+insertion+Or-opt [STEW77]*", stew_len, stew_ticks.mean());
    table.print();

    std::printf(
        "restarted 2-opt beats tuned SA on %d/10, hot-start SA on %d/10 "
        "(paper: 9/10)\n"
        "constructive heuristic beats tuned SA on %d/10 instances\n"
        "work to reach constructive quality: tuned SA %.0fx, hot SA %.0fx "
        "the heuristic's work (paper: 20-60x)\n",
        twoopt_beats_sa, twoopt_beats_hot, stewart_beats_sa, sa_ratio.mean(),
        hot_ratio.mean());
  }
  std::printf("\n* stand-in for Stewart's CCAO; see DESIGN.md\n");
  driver.finish();
  return 0;
}

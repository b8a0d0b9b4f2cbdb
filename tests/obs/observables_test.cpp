// StageObservables: exact integer accumulators for the thermodynamic run
// diagnostics — moments, lag-k autocorrelation, the equilibrium detector —
// plus their merge algebra and the recorder feed that must be identical
// under any --trace-sample stride.
#include "obs/observables.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace mcopt::obs {
namespace {

StageObservables fed(const std::vector<std::int64_t>& samples) {
  StageObservables obs;
  for (const std::int64_t x : samples) obs.add_sample(x);
  return obs;
}

/// The per-sample body StageObservables had before it took runs: the
/// reference add_run() and the recorder's run buffering must reproduce.
void reference_add_sample(StageObservables& o, std::int64_t x) {
  constexpr std::uint64_t kMaxLag = StageObservables::kMaxLag;
  const std::uint64_t lags = std::min<std::uint64_t>(o.samples, kMaxLag);
  for (std::uint64_t lag = 1; lag <= lags; ++lag) {
    const std::int64_t prev = o.ring[(o.samples - lag) % kMaxLag];
    o.lag_cross[lag - 1] +=
        static_cast<WideInt>(x) * static_cast<WideInt>(prev);
    ++o.lag_pairs[lag - 1];
  }
  o.ring[o.samples % kMaxLag] = x;
  ++o.samples;
  o.sum += x;
  o.sum_sq += static_cast<WideInt>(x) * static_cast<WideInt>(x);

  o.window_sum += x;
  if (++o.window_count == StageObservables::kEquilibriumWindow) {
    ++o.windows;
    if (o.have_prev_window && !o.equilibrated) {
      const std::int64_t drift = o.window_sum - o.prev_window_sum;
      const std::int64_t magnitude = drift < 0 ? -drift : drift;
      const std::int64_t limit =
          StageObservables::kMeanDriftLimit *
          static_cast<std::int64_t>(StageObservables::kEquilibriumWindow);
      if (magnitude <= limit) {
        o.equilibrated = true;
        ++o.equilibrated_runs;
        o.first_equilibrated_sample = o.samples;
      }
    }
    o.prev_window_sum = o.window_sum;
    o.have_prev_window = true;
    o.window_sum = 0;
    o.window_count = 0;
  }
}

std::string wide(WideInt v) {
  const bool negative = v < 0;
  auto u = static_cast<unsigned __int128>(negative ? -v : v);
  std::string digits;
  do {
    digits.insert(digits.begin(), static_cast<char>('0' + u % 10));
    u /= 10;
  } while (u != 0);
  return negative ? "-" + digits : digits;
}

/// Every accumulator and every transient detector field.
void expect_identical(const StageObservables& got, const StageObservables& want,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(wide(got.sum_sq), wide(want.sum_sq));
  for (std::size_t k = 0; k < StageObservables::kMaxLag; ++k) {
    EXPECT_EQ(wide(got.lag_cross[k]), wide(want.lag_cross[k]))
        << "lag " << k + 1;
    EXPECT_EQ(got.lag_pairs[k], want.lag_pairs[k]) << "lag " << k + 1;
    EXPECT_EQ(got.ring[k], want.ring[k]) << "ring slot " << k;
  }
  EXPECT_EQ(got.windows, want.windows);
  EXPECT_EQ(got.equilibrated_runs, want.equilibrated_runs);
  EXPECT_EQ(got.first_equilibrated_sample, want.first_equilibrated_sample);
  EXPECT_EQ(got.temperature, want.temperature);
  EXPECT_EQ(got.window_sum, want.window_sum);
  EXPECT_EQ(got.prev_window_sum, want.prev_window_sum);
  EXPECT_EQ(got.window_count, want.window_count);
  EXPECT_EQ(got.have_prev_window, want.have_prev_window);
  EXPECT_EQ(got.equilibrated, want.equilibrated);
}

TEST(ObservablesTest, AddRunMatchesPerSampleReference) {
  const std::int64_t near_2_40 = (std::int64_t{1} << 40) - 3;
  // Prefixes put the run at every ring fill (0..kMaxLag+1 earlier
  // samples), mid-window, just before a window boundary and after the
  // detector fired; each is then extended by runs of length 0..100.
  std::vector<std::vector<std::int64_t>> prefixes{{}};
  for (std::size_t len = 1; len <= StageObservables::kMaxLag + 1; ++len) {
    std::vector<std::int64_t> prefix;
    for (std::size_t i = 0; i < len; ++i) {
      prefix.push_back(static_cast<std::int64_t>(i * 7 % 5) - 2);
    }
    prefixes.push_back(prefix);
  }
  prefixes.push_back(std::vector<std::int64_t>(31, 4));
  prefixes.push_back(std::vector<std::int64_t>(70, 9));  // detector fired
  std::vector<std::int64_t> drifting;
  for (std::int64_t i = 0; i < 45; ++i) drifting.push_back(1000 - 5 * i);
  prefixes.push_back(drifting);
  std::vector<std::int64_t> huge;
  for (std::int64_t i = 0; i < 11; ++i) {
    huge.push_back(i % 2 == 0 ? near_2_40 - i : -near_2_40 + i);
  }
  prefixes.push_back(huge);

  for (std::size_t p = 0; p < prefixes.size(); ++p) {
    for (const std::int64_t x : {std::int64_t{4}, std::int64_t{-3},
                                 std::int64_t{0}, near_2_40, -near_2_40}) {
      for (std::uint64_t n = 0; n <= 100; ++n) {
        StageObservables runs;
        StageObservables samples;
        for (const std::int64_t y : prefixes[p]) {
          runs.add_run(y, 1);
          reference_add_sample(samples, y);
        }
        runs.add_run(x, n);
        for (std::uint64_t i = 0; i < n; ++i) reference_add_sample(samples, x);
        expect_identical(runs, samples,
                         "prefix " + std::to_string(p) + " x " +
                             std::to_string(x) + " n " + std::to_string(n));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }

  // Random run sequences, values near 2^40 included, with long runs that
  // cross many windows before and after the detector fires.
  util::Rng rng{20250};
  for (int trial = 0; trial < 300; ++trial) {
    StageObservables runs;
    StageObservables samples;
    const std::int64_t base = trial % 3 == 0 ? near_2_40 : 50;
    for (int r = 0; r < 40; ++r) {
      const std::int64_t x =
          base + static_cast<std::int64_t>(rng.next_below(7)) - 3;
      const std::uint64_t n =
          r % 9 == 8 ? 200 + rng.next_below(400) : rng.next_below(12);
      runs.add_run(x, n);
      for (std::uint64_t i = 0; i < n; ++i) reference_add_sample(samples, x);
    }
    expect_identical(runs, samples, "trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ObservablesTest, MomentsMatchNaiveComputation) {
  const std::vector<std::int64_t> xs{5, -3, 12, 0, 7, 7, -1, 30, 2, 2};
  const StageObservables obs = fed(xs);

  double sum = 0.0;
  for (const std::int64_t x : xs) sum += static_cast<double>(x);
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (const std::int64_t x : xs) {
    var += (static_cast<double>(x) - mean) * (static_cast<double>(x) - mean);
  }
  var /= static_cast<double>(xs.size());

  EXPECT_EQ(obs.samples, xs.size());
  EXPECT_DOUBLE_EQ(obs.mean(), mean);
  EXPECT_NEAR(obs.variance(), var, 1e-9);
}

TEST(ObservablesTest, EmptyAndSingletonAreWellDefined) {
  StageObservables empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
  EXPECT_DOUBLE_EQ(empty.autocorrelation(1), 0.0);
  EXPECT_DOUBLE_EQ(empty.specific_heat(), 0.0);

  StageObservables one;
  one.add_sample(42);
  EXPECT_DOUBLE_EQ(one.mean(), 42.0);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
}

TEST(ObservablesTest, AlternatingSequenceIsAnticorrelatedAtLagOne) {
  StageObservables obs;
  for (int i = 0; i < 2000; ++i) obs.add_sample(i % 2 == 0 ? 10 : 12);
  // Perfectly alternating: rho_1 -> -1, rho_2 -> +1.
  EXPECT_NEAR(obs.autocorrelation(1), -1.0, 0.01);
  EXPECT_NEAR(obs.autocorrelation(2), 1.0, 0.01);
}

TEST(ObservablesTest, ConstantSequenceHasZeroVarianceAndAutocorr) {
  StageObservables obs;
  for (int i = 0; i < 100; ++i) obs.add_sample(7);
  EXPECT_DOUBLE_EQ(obs.variance(), 0.0);
  // Degenerate variance: the estimator returns 0, not NaN.
  EXPECT_DOUBLE_EQ(obs.autocorrelation(1), 0.0);
}

TEST(ObservablesTest, AutocorrelationLagBoundsReturnZero) {
  StageObservables obs;
  for (int i = 0; i < 64; ++i) obs.add_sample(i % 3);
  EXPECT_DOUBLE_EQ(obs.autocorrelation(0), 0.0);
  EXPECT_DOUBLE_EQ(
      obs.autocorrelation(StageObservables::kMaxLag + 1), 0.0);
}

TEST(ObservablesTest, SpecificHeatIsVarianceOverTemperatureSquared) {
  StageObservables obs = fed({1, 5, 1, 5, 1, 5, 1, 5});
  EXPECT_DOUBLE_EQ(obs.specific_heat(), 0.0) << "no temperature recorded";
  obs.temperature = 2.0;
  EXPECT_NEAR(obs.specific_heat(), obs.variance() / 4.0, 1e-12);
}

TEST(ObservablesTest, EquilibriumFiresOnFlatWindowPair) {
  StageObservables obs;
  const auto window = StageObservables::kEquilibriumWindow;
  for (std::uint64_t i = 0; i < 2 * window; ++i) obs.add_sample(100);
  EXPECT_EQ(obs.windows, 2u);
  EXPECT_EQ(obs.equilibrated_runs, 1u);
  // Flagged exactly when the second window completed.
  EXPECT_EQ(obs.first_equilibrated_sample, 2 * window);
}

TEST(ObservablesTest, EquilibriumIgnoresDriftingWindows) {
  StageObservables obs;
  const auto window = StageObservables::kEquilibriumWindow;
  // Strictly cooling chain: every window's sum drops by more than the
  // drift limit allows, so the detector must never fire.
  for (std::uint64_t i = 0; i < 6 * window; ++i) {
    obs.add_sample(10'000 - static_cast<std::int64_t>(2 * i));
  }
  EXPECT_EQ(obs.windows, 6u);
  EXPECT_EQ(obs.equilibrated_runs, 0u);
  EXPECT_EQ(obs.first_equilibrated_sample, 0u);
}

TEST(ObservablesTest, EquilibriumCountsOncePerRun) {
  StageObservables obs;
  const auto window = StageObservables::kEquilibriumWindow;
  for (std::uint64_t i = 0; i < 10 * window; ++i) obs.add_sample(5);
  EXPECT_EQ(obs.equilibrated_runs, 1u)
      << "a run equilibrates once; later flat windows must not recount";
  EXPECT_EQ(obs.first_equilibrated_sample, 2 * window);
}

TEST(ObservablesTest, MergeIsAssociativeOnExportedValues) {
  // Three independent "runs" (each its own accumulator), merged flat vs
  // grouped — the property run_method_row and the shard reduction rely on.
  const StageObservables a = fed({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const StageObservables b = fed({100, 90, 80, 70});
  const StageObservables c = fed({-5, -5, -5});

  StageObservables flat;
  flat.merge(a);
  flat.merge(b);
  flat.merge(c);

  StageObservables bc;
  bc.merge(b);
  bc.merge(c);
  StageObservables grouped;
  grouped.merge(a);
  grouped.merge(bc);

  EXPECT_EQ(flat.samples, grouped.samples);
  EXPECT_EQ(flat.samples, 17u);
  EXPECT_DOUBLE_EQ(flat.mean(), grouped.mean());
  EXPECT_DOUBLE_EQ(flat.variance(), grouped.variance());
  for (std::size_t lag = 1; lag <= StageObservables::kMaxLag; ++lag) {
    EXPECT_DOUBLE_EQ(flat.autocorrelation(lag), grouped.autocorrelation(lag))
        << "lag " << lag;
  }
  EXPECT_EQ(flat.windows, grouped.windows);
  EXPECT_EQ(flat.equilibrated_runs, grouped.equilibrated_runs);
}

TEST(ObservablesTest, MergeTakesMinFirstEquilibratedAndMaxTemperature) {
  StageObservables a;
  a.first_equilibrated_sample = 96;
  a.temperature = 1.5;
  StageObservables b;
  b.first_equilibrated_sample = 64;
  b.temperature = 0.0;
  StageObservables c;  // never equilibrated: zero must not win the min

  StageObservables merged;
  merged.merge(a);
  merged.merge(c);
  merged.merge(b);
  EXPECT_EQ(merged.first_equilibrated_sample, 64u);
  EXPECT_DOUBLE_EQ(merged.temperature, 1.5);
}

TEST(ObservablesTest, MergeDoesNotMixTransientWindowState) {
  // A half-filled window must not leak into the merge: only completed
  // exact counts travel.
  StageObservables partial;
  for (int i = 0; i < 5; ++i) partial.add_sample(1);
  StageObservables target;
  target.merge(partial);
  EXPECT_EQ(target.samples, 5u);
  EXPECT_EQ(target.windows, 0u);
  const auto window = StageObservables::kEquilibriumWindow;
  // Feeding the *merged* accumulator a full flat window pair still uses
  // its own (fresh) window, not the donor's partial one.
  for (std::uint64_t i = 0; i < 2 * window; ++i) target.add_sample(1);
  EXPECT_EQ(target.windows, 2u);
  EXPECT_EQ(target.equilibrated_runs, 1u);
}

// The satellite-1 contract: observables feed from the metrics path, before
// the trace-sampling stride, so any --trace-sample value yields the exact
// same accumulators.
TEST(ObservablesTest, RecorderFeedIsIdenticalUnderTraceSampling) {
  auto drive = [](std::uint64_t stride) {
    Recorder rec{nullptr, /*collect_metrics=*/true, stride};
    RunMetrics metrics;
    rec.begin_run(&metrics, 2);
    rec.stage_temperature(0, 3.0);
    rec.stage_temperature(1, 1.5);
    double cost = 500.0;
    for (std::uint64_t tick = 1; tick <= 200; ++tick) {
      const std::uint32_t stage = tick <= 120 ? 0u : 1u;
      const double delta = (tick % 3 == 0) ? -2.0 : 1.0;
      rec.proposal(stage, tick, cost + delta, cost, delta);
      if (delta < 0.0) {
        cost += delta;
        rec.accept(stage, tick, cost, cost, delta);
      } else {
        rec.reject(stage, tick, cost + delta, cost);
      }
    }
    rec.end_run();
    return metrics;
  };

  const RunMetrics dense = drive(1);
  for (const std::uint64_t stride : {2ull, 7ull, 1000ull}) {
    const RunMetrics sampled = drive(stride);
    ASSERT_EQ(sampled.observables.size(), dense.observables.size());
    for (std::size_t s = 0; s < dense.observables.size(); ++s) {
      const StageObservables& d = dense.observables[s];
      const StageObservables& o = sampled.observables[s];
      EXPECT_EQ(o.samples, d.samples) << "stride " << stride;
      EXPECT_DOUBLE_EQ(o.mean(), d.mean());
      EXPECT_DOUBLE_EQ(o.variance(), d.variance());
      EXPECT_DOUBLE_EQ(o.temperature, d.temperature);
      for (std::size_t lag = 1; lag <= StageObservables::kMaxLag; ++lag) {
        EXPECT_DOUBLE_EQ(o.autocorrelation(lag), d.autocorrelation(lag));
      }
      EXPECT_EQ(o.windows, d.windows);
      EXPECT_EQ(o.equilibrated_runs, d.equilibrated_runs);
      EXPECT_EQ(o.first_equilibrated_sample, d.first_equilibrated_sample);
    }
    // And the whole JSON export — the form CI diffs — is byte-identical
    // modulo the wall-clock field, which sampling legitimately changes.
    RunMetrics dense_copy = dense;
    RunMetrics sampled_copy = sampled;
    dense_copy.wall_seconds = sampled_copy.wall_seconds = 0.0;
    for (auto& s : dense_copy.stages) s.wall_seconds = 0.0;
    for (auto& s : sampled_copy.stages) s.wall_seconds = 0.0;
    EXPECT_EQ(dense_copy.to_json(), sampled_copy.to_json())
        << "stride " << stride;
  }
}

TEST(ObservablesTest, RecorderSamplesPreMoveCost) {
  Recorder rec{nullptr, /*collect_metrics=*/true};
  RunMetrics metrics;
  rec.begin_run(&metrics, 1);
  // proposal(cost, best, delta) carries the post-move cost; the chain
  // energy sampled must be the pre-move cost, cost - delta = 50.
  rec.proposal(0, 1, 47.0, 50.0, -3.0);
  rec.end_run();
  ASSERT_EQ(metrics.observables.size(), 1u);
  EXPECT_EQ(metrics.observables[0].samples, 1u);
  EXPECT_DOUBLE_EQ(metrics.observables[0].mean(), 50.0);
}

// The recorder buffers equal samples into runs and keeps its tallies per
// bound stage; with stages interleaving proposal by proposal (tempering's
// replicas, begun with stage_walls = false), with real-valued costs whose
// energies differ as doubles yet round alike, and with a begin_run that
// arrives before the previous run's end_run, every observable, tally and
// histogram must still equal a per-proposal reference.
TEST(ObservablesTest, RecorderInterleavedStagesMatchPerProposalReference) {
  static constexpr std::size_t kStages = 4;  // one more than begin_run is told
  struct Reference {
    std::vector<StageObservables> observables =
        std::vector<StageObservables>(kStages);
    std::vector<StageMetrics> stages = std::vector<StageMetrics>(kStages);
    LogHistogram proposed;
    LogHistogram accepted;
  };
  VectorSink sink;
  Recorder rec{&sink, /*collect_metrics=*/true, /*trace_sample=*/5};
  util::Rng rng{8128};
  const double deltas[] = {-2.0, -0.4, 0.0, 0.0, 0.6, 1.0, 3.0, -1.2};
  auto drive = [&](RunMetrics* metrics, Reference* ref, int steps) {
    rec.begin_run(metrics, kStages - 1, /*stage_walls=*/false);
    double cost[kStages] = {40.4, 41.6, 39.5, 40.0};
    for (int step = 0; step < steps; ++step) {
      // Mostly round-robin like tempering's replicas, sometimes a repeat.
      const auto stage = static_cast<std::uint32_t>(
          rng.next_below(4) == 0 ? rng.next_below(kStages)
                                 : static_cast<std::uint64_t>(step) % kStages);
      const double delta = deltas[rng.next_below(8)];
      const double candidate = cost[stage] + delta;
      const auto tick = static_cast<std::uint64_t>(step + 1);
      rec.proposal(stage, tick, candidate, 0.0, delta);
      reference_add_sample(ref->observables[stage],
                           std::llround(candidate - delta));
      StageMetrics& s = ref->stages[stage];
      ++s.proposals;
      ++s.ticks;
      if (delta < 0.0) {
        ++s.downhill_proposals;
      } else if (delta > 0.0) {
        ++s.uphill_proposals;
        ref->proposed.record(delta);
      } else {
        ++s.sideways_proposals;
      }
      if (rng.next_below(3) != 0) {
        rec.accept(stage, tick, candidate, 0.0, delta);
        cost[stage] = candidate;
        ++s.accepts;
        if (delta > 0.0) {
          ++s.uphill_accepts;
          ref->accepted.record(delta);
        }
      } else {
        rec.reject(stage, tick, candidate, 0.0);
        ++s.rejects;
      }
    }
  };
  auto expect_matches = [](const RunMetrics& got, const Reference& want,
                           const std::string& label) {
    ASSERT_EQ(got.observables.size(), kStages) << label;
    ASSERT_EQ(got.stages.size(), kStages) << label;
    for (std::size_t s = 0; s < kStages; ++s) {
      const std::string where = label + " stage " + std::to_string(s);
      expect_identical(got.observables[s], want.observables[s], where);
      EXPECT_EQ(got.observables[s].run_length, 0u) << where << " left open";
      const StageMetrics& g = got.stages[s];
      const StageMetrics& w = want.stages[s];
      EXPECT_EQ(g.proposals, w.proposals) << where;
      EXPECT_EQ(g.ticks, w.ticks) << where;
      EXPECT_EQ(g.downhill_proposals, w.downhill_proposals) << where;
      EXPECT_EQ(g.sideways_proposals, w.sideways_proposals) << where;
      EXPECT_EQ(g.uphill_proposals, w.uphill_proposals) << where;
      EXPECT_EQ(g.accepts, w.accepts) << where;
      EXPECT_EQ(g.uphill_accepts, w.uphill_accepts) << where;
      EXPECT_EQ(g.rejects, w.rejects) << where;
    }
    std::string got_json;
    std::string want_json;
    got.uphill_delta_proposed.append_json(got_json);
    want.proposed.append_json(want_json);
    got.uphill_delta_accepted.append_json(got_json);
    want.accepted.append_json(want_json);
    EXPECT_EQ(got_json, want_json) << label;
  };

  RunMetrics first;
  Reference first_ref;
  drive(&first, &first_ref, 3000);
  // No end_run: the next begin_run must close the open run into `first`.
  RunMetrics second;
  Reference second_ref;
  drive(&second, &second_ref, 2000);
  expect_matches(first, first_ref, "unclosed run");
  rec.end_run();
  expect_matches(second, second_ref, "closed run");
  EXPECT_GT(first.observables[0].samples, 0u);
  EXPECT_FALSE(sink.events().empty());
}

TEST(ObservablesTest, UphillRateCountsAcceptedUphillShare) {
  StageMetrics stage;
  EXPECT_DOUBLE_EQ(stage.uphill_rate(), 0.0);
  stage.uphill_proposals = 8;
  stage.uphill_accepts = 2;
  EXPECT_DOUBLE_EQ(stage.uphill_rate(), 0.25);
}

}  // namespace
}  // namespace mcopt::obs

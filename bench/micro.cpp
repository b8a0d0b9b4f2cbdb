// Microbenchmarks of the primitives the equal-time methodology rests on:
// if one method's "tick" were much more expensive than another's, the
// equal-tick tables would not correspond to equal time.  google-benchmark.
#include <benchmark/benchmark.h>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/figure1.hpp"
#include "core/gfunction.hpp"
#include "core/problem.hpp"
#include "linarr/goto_heuristic.hpp"
#include "linarr/problem.hpp"
#include "netlist/generator.hpp"
#include "partition/kl.hpp"
#include "partition/problem.hpp"
#include "tsp/local_search.hpp"
#include "tsp/problem.hpp"

namespace {

using namespace mcopt;

netlist::Netlist gola(std::size_t cells, std::size_t nets) {
  util::Rng rng{1};
  return netlist::random_gola(netlist::GolaParams{cells, nets}, rng);
}

void BM_DensitySwapUndo(benchmark::State& state) {
  const auto nl = gola(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(0)) * 10);
  util::Rng rng{2};
  linarr::DensityState ds{nl, linarr::Arrangement::random(nl.num_cells(), rng)};
  const std::size_t n = nl.num_cells();
  for (auto _ : state) {
    const auto [a, b] = rng.next_distinct_pair(n);
    ds.apply_swap(a, b);
    benchmark::DoNotOptimize(ds.density());
    ds.apply_swap(a, b);
  }
}
BENCHMARK(BM_DensitySwapUndo)->Arg(15)->Arg(60)->Arg(240);

// The speculative kernels alone: speculate_swap (resp. speculate_move) +
// discard on a fixed arrangement, or either + commit (the accept path),
// pairs drawn up front so the RNG is not timed.  Args: (cells,
// nola) — GOLA (2-pin) or NOLA (2..6-pin), 10 nets per cell; the NOLA 60
// and 240 rows give wide nets one and four words of position bits.  Every
// row reads its candidate density with the lane pass: GOLA 15 and 60 and
// NOLA 15 feed it the two-pin weight rows, GOLA 240 and NOLA 60 and 240
// the neighbour lists, both sides of the rows' rule in
// linarr/density.hpp.
netlist::Netlist density_instance(const benchmark::State& state,
                                  util::Rng& rng) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  return state.range(1) == 0
             ? netlist::random_gola(netlist::GolaParams{cells, cells * 10},
                                    rng)
             : netlist::random_nola(
                   netlist::NolaParams{cells, cells * 10, 2, 6}, rng);
}

template <bool kMove, bool kCommit = false>
void density_speculation(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  util::Rng rng{10};
  const auto nl = density_instance(state, rng);
  linarr::DensityState ds{nl, linarr::Arrangement::random(cells, rng)};
  constexpr std::size_t kPairs = 4096;
  std::vector<std::pair<std::size_t, std::size_t>> pairs(kPairs);
  for (auto& pair : pairs) pair = rng.next_distinct_pair(cells);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [a, b] = pairs[i];
    i = (i + 1) % kPairs;
    if constexpr (kMove) {
      ds.speculate_move(a, b);
    } else {
      ds.speculate_swap(a, b);
    }
    benchmark::DoNotOptimize(ds.speculative_density());
    if constexpr (kCommit) {
      ds.commit_speculation();
    } else {
      ds.discard_speculation();
    }
  }
}

void BM_DensitySpeculateSwap(benchmark::State& state) {
  density_speculation<false>(state);
}
BENCHMARK(BM_DensitySpeculateSwap)
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({240, 0})
    ->Args({240, 1})
    ->ArgNames({"cells", "nola"});

void BM_DensitySpeculateCommit(benchmark::State& state) {
  density_speculation<false, true>(state);
}
BENCHMARK(BM_DensitySpeculateCommit)
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({240, 0})
    ->Args({240, 1})
    ->ArgNames({"cells", "nola"});

void BM_DensitySpeculateMove(benchmark::State& state) {
  density_speculation<true>(state);
}
BENCHMARK(BM_DensitySpeculateMove)
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({240, 0})
    ->Args({240, 1})
    ->ArgNames({"cells", "nola"});

void BM_DensityMoveCommit(benchmark::State& state) {
  density_speculation<true, true>(state);
}
BENCHMARK(BM_DensityMoveCommit)
    ->Args({15, 0})
    ->Args({15, 1})
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({240, 0})
    ->Args({240, 1})
    ->ArgNames({"cells", "nola"});

// The fixed cost of one short solve before its first proposal: a
// LinArrProblem built on a netlist that earlier problems already used
// (its NetIndex built once, outside the loop), and a DensityState copy,
// the start of every clone().  Args: (cells, nola), as above.
void BM_LinArrConstruct(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  util::Rng rng{11};
  const auto nl = density_instance(state, rng);
  const auto start = linarr::Arrangement::random(cells, rng);
  benchmark::DoNotOptimize(nl.net_index());
  for (auto _ : state) {
    linarr::LinArrProblem problem{nl, start};
    benchmark::DoNotOptimize(problem.cost());
  }
}
BENCHMARK(BM_LinArrConstruct)
    ->Args({15, 0})
    ->Args({15, 1})
    ->ArgNames({"cells", "nola"});

void BM_DensityCopy(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  util::Rng rng{12};
  const auto nl = density_instance(state, rng);
  const linarr::DensityState ds{nl, linarr::Arrangement::random(cells, rng)};
  for (auto _ : state) {
    linarr::DensityState copy{ds};
    benchmark::DoNotOptimize(copy.density());
  }
}
BENCHMARK(BM_DensityCopy)
    ->Args({15, 0})
    ->Args({15, 1})
    ->ArgNames({"cells", "nola"});

void BM_DensityFullRecount(benchmark::State& state) {
  const auto nl = gola(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(0)) * 10);
  util::Rng rng{3};
  const auto arr = linarr::Arrangement::random(nl.num_cells(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linarr::density_of(nl, arr));
  }
}
BENCHMARK(BM_DensityFullRecount)->Arg(15)->Arg(60)->Arg(240);

// One propose + reject through the Problem interface.
void BM_LinArrProposeReject(benchmark::State& state) {
  const auto nl = gola(15, 150);
  util::Rng rng{4};
  linarr::LinArrProblem problem{nl, linarr::Arrangement::random(15, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.propose(rng));
    problem.reject();
  }
}
BENCHMARK(BM_LinArrProposeReject);

void BM_GEvaluate(benchmark::State& state) {
  const auto cls = static_cast<core::GClass>(state.range(0));
  const auto g = core::make_g(cls, {.scale = 0.5, .num_nets = 150});
  double h = 60.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->probability(0, h, h + 2.0));
    h += 1e-9;  // defeat constant folding
  }
}
BENCHMARK(BM_GEvaluate)
    ->Arg(static_cast<int>(core::GClass::kMetropolis))
    ->Arg(static_cast<int>(core::GClass::kGOne))
    ->Arg(static_cast<int>(core::GClass::kCubicDiff))
    ->Arg(static_cast<int>(core::GClass::kExponentialDiff));

void BM_Figure1Run1k(benchmark::State& state) {
  const auto nl = gola(15, 150);
  const auto g = core::make_g(core::GClass::kSixTempAnnealing, {.scale = 4.0});
  util::Rng rng{5};
  for (auto _ : state) {
    linarr::LinArrProblem problem{nl, linarr::Arrangement::random(15, rng)};
    core::Figure1Options options;
    options.budget = 1000;
    benchmark::DoNotOptimize(core::run_figure1(problem, *g, options, rng));
  }
}
BENCHMARK(BM_Figure1Run1k);

void BM_GotoConstruct(benchmark::State& state) {
  const auto nl = gola(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(0)) * 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linarr::goto_arrangement(nl));
  }
}
BENCHMARK(BM_GotoConstruct)->Arg(15)->Arg(60)->Arg(240);

void BM_KernighanLin(benchmark::State& state) {
  util::Rng rng{6};
  const auto nl = netlist::random_graph(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(0)) * 3, rng);
  const auto start = partition::PartitionState::random(nl, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::kernighan_lin(nl, start.sides()));
  }
}
BENCHMARK(BM_KernighanLin)->Arg(20)->Arg(40)->Arg(80);

// Partition swaps through the Problem interface (the RNG's rejection draws
// included) on 40 cells and 120 nets.  Arg hyper: 0 is a random graph,
// every swap priced by the two-pin gains alone; 1 a hypergraph of 2..6-pin
// nets, whose wide nets are counted per net too.
netlist::Netlist partition_instance(const benchmark::State& state,
                                    util::Rng& rng) {
  return state.range(0) == 0
             ? netlist::random_graph(40, 120, rng)
             : netlist::random_nola(netlist::NolaParams{40, 120, 2, 6}, rng);
}

void BM_PartitionProposeReject(benchmark::State& state) {
  util::Rng rng{7};
  const auto nl = partition_instance(state, rng);
  partition::PartitionProblem problem{partition::PartitionState::random(nl, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.propose(rng));
    problem.reject();
  }
}
BENCHMARK(BM_PartitionProposeReject)->Arg(0)->Arg(1)->ArgName("hyper");

// The accept path: every proposed swap is committed, so each iteration
// also moves the gains of both cells' neighbours.
void BM_PartitionSpeculateCommit(benchmark::State& state) {
  util::Rng rng{7};
  const auto nl = partition_instance(state, rng);
  partition::PartitionProblem problem{partition::PartitionState::random(nl, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.propose(rng));
    problem.accept();
  }
}
BENCHMARK(BM_PartitionSpeculateCommit)->Arg(0)->Arg(1)->ArgName("hyper");

void BM_TwoOptDelta(benchmark::State& state) {
  util::Rng rng{8};
  const auto inst =
      tsp::TspInstance::random_euclidean(static_cast<std::size_t>(state.range(0)), rng);
  const auto order = tsp::random_order(inst.size(), rng);
  std::size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsp::two_opt_delta(inst, order, 0, i));
    i = i % (inst.size() - 2) + 1;
  }
}
BENCHMARK(BM_TwoOptDelta)->Arg(50)->Arg(200);

void BM_TspProposeReject(benchmark::State& state) {
  util::Rng rng{9};
  const auto inst = tsp::TspInstance::random_euclidean(100, rng);
  tsp::TspProblem problem{inst, tsp::random_order(100, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.propose(rng));
    problem.reject();
  }
}
BENCHMARK(BM_TspProposeReject);

}  // namespace

BENCHMARK_MAIN();

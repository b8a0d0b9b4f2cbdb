// Random instance generators matching the paper's workloads (§4.2.1, §4.3.1):
// 30 random instances of 15 circuit elements and 150 nets, two-pin nets for
// GOLA and multi-pin nets for NOLA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace mcopt::netlist {

/// Parameters for random GOLA (graph) instances: every net has exactly two
/// distinct pins chosen uniformly at random.  Parallel nets are allowed, as
/// multiple physical wires may connect the same pair of boards.
struct GolaParams {
  std::size_t num_cells = 15;
  std::size_t num_nets = 150;
};

/// Parameters for random NOLA instances: each net's pin count is uniform in
/// [min_pins, max_pins], pins chosen uniformly without replacement.
struct NolaParams {
  std::size_t num_cells = 15;
  std::size_t num_nets = 150;
  std::size_t min_pins = 2;
  std::size_t max_pins = 6;
};

/// Both throw std::invalid_argument, before allocating anything, on fewer
/// than two or more than kMaxCells cells, more than kMaxNets nets or (NOLA)
/// a pin-count range that is empty, below two or wider than the cells.
[[nodiscard]] Netlist random_gola(const GolaParams& params, util::Rng& rng);
[[nodiscard]] Netlist random_nola(const NolaParams& params, util::Rng& rng);

/// The paper's GOLA test set: `count` instances drawn from `params`, with
/// per-instance seeds derived from `master_seed` so instance i is the same
/// regardless of how many instances are requested.
[[nodiscard]] std::vector<Netlist> gola_test_set(std::size_t count,
                                                 const GolaParams& params,
                                                 std::uint64_t master_seed);
[[nodiscard]] std::vector<Netlist> nola_test_set(std::size_t count,
                                                 const NolaParams& params,
                                                 std::uint64_t master_seed);

/// Random connected(ish) graph for the partition experiments: n cells,
/// m two-pin nets, no self-loops.  Parallel edges allowed.
[[nodiscard]] Netlist random_graph(std::size_t num_cells, std::size_t num_nets,
                                   util::Rng& rng);

}  // namespace mcopt::netlist

#include "netlist/generator.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace mcopt::netlist {

namespace {

/// k distinct cells sampled uniformly from [0, n) by partial Fisher-Yates.
std::vector<CellId> sample_distinct(std::size_t n, std::size_t k,
                                    util::Rng& rng,
                                    std::vector<CellId>& scratch) {
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch[i] = static_cast<CellId>(i);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.next_below(n - i));
    std::swap(scratch[i], scratch[j]);
  }
  return {scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(k)};
}

}  // namespace

Netlist random_gola(const GolaParams& params, util::Rng& rng) {
  if (params.num_cells < 2) {
    throw std::invalid_argument("random_gola: need at least two cells");
  }
  if (params.num_nets > kMaxNets) {
    throw std::invalid_argument(
        "random_gola: net count exceeds the NetId range");
  }
  Netlist::Builder builder{params.num_cells};
  for (std::size_t i = 0; i < params.num_nets; ++i) {
    const auto [a, b] = rng.next_distinct_pair(params.num_cells);
    builder.add_net({static_cast<CellId>(a), static_cast<CellId>(b)});
  }
  return builder.build();
}

Netlist random_nola(const NolaParams& params, util::Rng& rng) {
  if (params.num_cells < 2) {
    throw std::invalid_argument("random_nola: need at least two cells");
  }
  if (params.min_pins < 2 || params.min_pins > params.max_pins ||
      params.max_pins > params.num_cells) {
    throw std::invalid_argument("random_nola: bad pin-count range");
  }
  if (params.num_nets > kMaxNets) {
    throw std::invalid_argument(
        "random_nola: net count exceeds the NetId range");
  }
  Netlist::Builder builder{params.num_cells};
  std::vector<CellId> scratch;
  for (std::size_t i = 0; i < params.num_nets; ++i) {
    const auto k = params.min_pins +
                   static_cast<std::size_t>(rng.next_below(
                       params.max_pins - params.min_pins + 1));
    builder.add_net(sample_distinct(params.num_cells, k, rng, scratch));
  }
  return builder.build();
}

std::vector<Netlist> gola_test_set(std::size_t count, const GolaParams& params,
                                   std::uint64_t master_seed) {
  std::vector<Netlist> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng{util::derive_seed(master_seed, i)};
    out.push_back(random_gola(params, rng));
  }
  return out;
}

std::vector<Netlist> nola_test_set(std::size_t count, const NolaParams& params,
                                   std::uint64_t master_seed) {
  std::vector<Netlist> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng{util::derive_seed(master_seed, i)};
    out.push_back(random_nola(params, rng));
  }
  return out;
}

Netlist random_graph(std::size_t num_cells, std::size_t num_nets,
                     util::Rng& rng) {
  return random_gola(GolaParams{num_cells, num_nets}, rng);
}

}  // namespace mcopt::netlist

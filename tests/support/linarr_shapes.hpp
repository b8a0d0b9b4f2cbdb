// Netlist shapes the linear-arrangement oracle tests run on, by name:
//   nola12    NOLA 12 cells / 72 nets, 3-6 pins, plus 8 two-pin nets:
//             at most 8 distinct pairs, so the two-pin rule in
//             linarr/density.hpp keeps the neighbour lists
//   mixed12   NOLA 12 cells / 80 nets, 2-3 pins: two-pin and three-pin
//             nets share most cells
//   gola2     GOLA on n = 2
//   gola3     GOLA on n = 3
//   nola3     NOLA on n = 3, 2-3 pins
//   parallel8 two-pin nets over at most 5 distinct pairs of 8 cells (so
//             the neighbour lists), each pair repeated 1-40 times (the
//             first pair exactly 40), so neighbour weights reach 80
//   nola63, nola64, nola65, nola130
//             NOLA on n cells / 3n nets, 2-6 pins, plus a wide net on
//             cells 0 and 61-65 (those below n) and one on every cell:
//             wide nets keep one (n = 63, 64), two (65) or three (130)
//             words of position bits
//   crossover23, below23
//             40 two-pin nets on 23 cells plus eight wide nets of 46
//             (crossover23) or 45 (below23) pins in all: the swap-kernel
//             rule in linarr/density.hpp takes the column kernel from 46
//             wide pins on 23 cells with one word of net bits, so
//             crossover23 sits exactly at the crossover and below23 one
//             pin under it
//   matrix18, lists18
//             two-pin nets over 27 (matrix18) or 26 (lists18) distinct
//             pairs of 18 cells, each pair one to three times, plus three
//             wide nets: the two-pin rule in linarr/density.hpp takes the
//             weight rows from 54 neighbour-list entries on 18 cells,
//             so matrix18 sits exactly at the rule and lists18 one pair
//             under
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace mcopt::testing {

inline netlist::Netlist linarr_shape(const std::string& shape,
                                     util::Rng& rng) {
  using netlist::GolaParams;
  using netlist::NolaParams;
  if (shape == "nola12") {
    const netlist::Netlist wide = random_nola(NolaParams{12, 72, 3, 6}, rng);
    netlist::Netlist::Builder b{12};
    for (netlist::NetId net = 0; net < wide.num_nets(); ++net) {
      b.add_net(wide.pins(net));
    }
    for (int net = 0; net < 8; ++net) {
      const auto [u, v] = rng.next_distinct_pair(12);
      b.add_net({static_cast<netlist::CellId>(u),
                 static_cast<netlist::CellId>(v)});
    }
    return b.build();
  }
  if (shape == "mixed12") return random_nola(NolaParams{12, 80, 2, 3}, rng);
  if (shape == "gola2") return random_gola(GolaParams{2, 6}, rng);
  if (shape == "gola3") return random_gola(GolaParams{3, 12}, rng);
  if (shape == "nola3") return random_nola(NolaParams{3, 12, 2, 3}, rng);
  for (const std::size_t n : {63U, 64U, 65U, 130U}) {
    if (shape != "nola" + std::to_string(n)) continue;
    const netlist::Netlist base =
        random_nola(NolaParams{n, n * 3, 2, 6}, rng);
    netlist::Netlist::Builder b{n};
    for (netlist::NetId net = 0; net < base.num_nets(); ++net) {
      b.add_net(base.pins(net));
    }
    std::vector<netlist::CellId> edge;
    for (const netlist::CellId c : {0U, 61U, 62U, 63U, 64U, 65U}) {
      if (c < n) edge.push_back(c);
    }
    b.add_net(edge);
    std::vector<netlist::CellId> every(n);
    for (std::size_t c = 0; c < n; ++c) {
      every[c] = static_cast<netlist::CellId>(c);
    }
    b.add_net(every);
    return b.build();
  }
  if (shape == "crossover23" || shape == "below23") {
    constexpr std::size_t kCells = 23;
    netlist::Netlist::Builder b{kCells};
    for (int net = 0; net < 40; ++net) {
      const auto [u, v] = rng.next_distinct_pair(kCells);
      b.add_net({static_cast<netlist::CellId>(u),
                 static_cast<netlist::CellId>(v)});
    }
    const std::size_t last = shape == "crossover23" ? 5 : 4;
    const std::size_t sizes[] = {6, 6, 6, 6, 6, 6, 5, last};
    for (const std::size_t pins : sizes) {
      std::vector<netlist::CellId> cells(kCells);
      for (std::size_t c = 0; c < kCells; ++c) {
        cells[c] = static_cast<netlist::CellId>(c);
      }
      // A partial Fisher-Yates shuffle: `pins` distinct cells.
      for (std::size_t i = 0; i < pins; ++i) {
        std::swap(cells[i], cells[i + static_cast<std::size_t>(
                                          rng.next_below(kCells - i))]);
      }
      cells.resize(pins);
      b.add_net(cells);
    }
    return b.build();
  }
  if (shape == "matrix18" || shape == "lists18") {
    constexpr std::size_t kCells = 18;
    const std::size_t distinct = shape == "matrix18" ? 27 : 26;
    netlist::Netlist::Builder b{kCells};
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    while (pairs.size() < distinct) {
      auto pair = rng.next_distinct_pair(kCells);
      if (pair.first > pair.second) std::swap(pair.first, pair.second);
      bool fresh = true;
      for (const auto& seen : pairs) fresh = fresh && seen != pair;
      if (fresh) pairs.push_back(pair);
    }
    for (const auto& [u, v] : pairs) {
      const std::uint64_t copies = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < copies; ++i) {
        b.add_net({static_cast<netlist::CellId>(u),
                   static_cast<netlist::CellId>(v)});
      }
    }
    b.add_net({0, 7, 17});
    b.add_net({3, 4, 5, 6});
    b.add_net({1, 8, 14});
    return b.build();
  }
  if (shape == "parallel8") {
    constexpr std::size_t kCells = 8;
    netlist::Netlist::Builder b{kCells};
    for (int pair = 0; pair < 5; ++pair) {
      const auto [u, v] = rng.next_distinct_pair(kCells);
      const std::uint64_t copies = pair == 0 ? 40 : 1 + rng.next_below(40);
      for (std::uint64_t i = 0; i < copies; ++i) {
        b.add_net({static_cast<netlist::CellId>(u),
                   static_cast<netlist::CellId>(v)});
      }
    }
    return b.build();
  }
  throw std::invalid_argument("linarr_shape: unknown shape " + shape);
}

}  // namespace mcopt::testing

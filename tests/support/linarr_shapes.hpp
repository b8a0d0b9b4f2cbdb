// Netlist shapes the linear-arrangement oracle tests run on, by name:
//   nola12    NOLA 12 cells / 80 nets, 2-6 pins (about a fifth two-pin)
//   mixed12   NOLA 12 cells / 80 nets, 2-3 pins: two-pin and three-pin
//             nets share most cells
//   gola2     GOLA on n = 2
//   gola3     GOLA on n = 3
//   nola3     NOLA on n = 3, 2-3 pins
//   parallel8 two-pin nets on 8 cells, each pair repeated 1-40 times (the
//             first pair exactly 40), so neighbour weights reach 80
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace mcopt::testing {

inline netlist::Netlist linarr_shape(const std::string& shape,
                                     util::Rng& rng) {
  using netlist::GolaParams;
  using netlist::NolaParams;
  if (shape == "nola12") return random_nola(NolaParams{12, 80, 2, 6}, rng);
  if (shape == "mixed12") return random_nola(NolaParams{12, 80, 2, 3}, rng);
  if (shape == "gola2") return random_gola(GolaParams{2, 6}, rng);
  if (shape == "gola3") return random_gola(GolaParams{3, 12}, rng);
  if (shape == "nola3") return random_nola(NolaParams{3, 12, 2, 3}, rng);
  if (shape == "parallel8") {
    constexpr std::size_t kCells = 8;
    netlist::Netlist::Builder b{kCells};
    for (int pair = 0; pair < 10; ++pair) {
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

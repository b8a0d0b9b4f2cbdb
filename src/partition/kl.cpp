#include "partition/kl.hpp"

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mcopt::partition {

namespace {

/// Dense edge-weight matrix (parallel edges accumulate).
std::vector<int> weight_matrix(const Netlist& netlist) {
  const std::size_t n = netlist.num_cells();
  std::vector<int> w(n * n, 0);
  for (NetId net = 0; net < netlist.num_nets(); ++net) {
    const auto pins = netlist.pins(net);
    const CellId a = pins[0];
    const CellId b = pins[1];
    ++w[static_cast<std::size_t>(a) * n + b];
    ++w[static_cast<std::size_t>(b) * n + a];
  }
  return w;
}

}  // namespace

KlResult kernighan_lin(const Netlist& netlist,
                       std::vector<std::uint8_t> start_sides) {
  if (!netlist.is_graph()) {
    throw std::invalid_argument("kernighan_lin: netlist must be a graph");
  }
  const std::size_t n = netlist.num_cells();
  if (start_sides.size() != n) {
    throw std::invalid_argument("kernighan_lin: sides size != cell count");
  }

  const std::vector<int> w = weight_matrix(netlist);
  auto weight = [&](CellId a, CellId b) {
    return w[static_cast<std::size_t>(a) * n + b];
  };

  KlResult result;
  result.sides = std::move(start_sides);

  bool improved = true;
  while (improved) {
    improved = false;
    ++result.passes;

    // D values at pass start: the two-pin gains of a state counted from
    // the current sides.  A fresh count each pass, not one state carried
    // across passes, keeps every pass's gains exact, so each improving
    // pass really lowers the cut and the loop ends.
    const PartitionState start{netlist, result.sides};
    result.cut = start.cut();
    std::vector<long long> d(n);
    for (CellId v = 0; v < n; ++v) d[v] = start.gain(v);

    std::vector<char> locked(n, 0);
    std::vector<std::pair<CellId, CellId>> swaps;
    std::vector<long long> gains;

    while (true) {
      long long best_gain = std::numeric_limits<long long>::min();
      CellId best_a = 0;
      CellId best_b = 0;
      bool found = false;
      for (CellId a = 0; a < n; ++a) {
        if (locked[a] || result.sides[a] != 0) continue;
        for (CellId b = 0; b < n; ++b) {
          if (locked[b] || result.sides[b] != 1) continue;
          ++result.evaluations;
          const long long gain = d[a] + d[b] - 2 * weight(a, b);
          if (!found || gain > best_gain) {
            best_gain = gain;
            best_a = a;
            best_b = b;
            found = true;
          }
        }
      }
      if (!found) break;

      swaps.emplace_back(best_a, best_b);
      gains.push_back(best_gain);
      locked[best_a] = 1;
      locked[best_b] = 1;
      for (CellId v = 0; v < n; ++v) {
        if (locked[v]) continue;
        const int wa = weight(v, best_a);
        const int wb = weight(v, best_b);
        if (result.sides[v] == 0) {
          d[v] += 2 * wa - 2 * wb;
        } else {
          d[v] += 2 * wb - 2 * wa;
        }
      }
    }

    // Best prefix of the tentative swap sequence.
    long long best_total = 0;
    std::size_t best_len = 0;
    long long running = 0;
    for (std::size_t i = 0; i < gains.size(); ++i) {
      running += gains[i];
      if (running > best_total) {
        best_total = running;
        best_len = i + 1;
      }
    }
    if (best_total > 0) {
      for (std::size_t i = 0; i < best_len; ++i) {
        result.sides[swaps[i].first] = 1;
        result.sides[swaps[i].second] = 0;
      }
      improved = true;
    }
  }
  // The last pass improved nothing: its start cut is the final cut.
  return result;
}

KlResult kernighan_lin_random(const Netlist& netlist, util::Rng& rng) {
  return kernighan_lin(netlist, PartitionState::random(netlist, rng).sides());
}

}  // namespace mcopt::partition

#include "netlist/netlist.hpp"

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcopt::netlist {

bool Netlist::is_graph() const noexcept {
  for (std::size_t n = 0; n + 1 < net_offsets_.size(); ++n) {
    if (net_offsets_[n + 1] - net_offsets_[n] != 2) return false;
  }
  return num_nets() > 0;
}

std::size_t Netlist::max_net_size() const noexcept {
  std::size_t best = 0;
  for (std::size_t n = 0; n + 1 < net_offsets_.size(); ++n) {
    best = std::max(best, net_offsets_[n + 1] - net_offsets_[n]);
  }
  return best;
}

const NetIndex& Netlist::net_index() const {
  std::call_once(index_->once, [this] {
    NetIndex& ix = index_->index;
    const std::size_t cells = num_cells_;
    std::vector<std::uint32_t> wide_id(num_nets(), 0);
    std::size_t pair_pins = 0;
    for (NetId net = 0; net < num_nets(); ++net) {
      if (pins(net).size() > 2) {
        wide_id[net] = static_cast<std::uint32_t>(ix.wide_net.size());
        ix.wide_net.push_back(net);
      } else {
        pair_pins += 2;
      }
    }
    ix.pairs.reserve(pair_pins);
    ix.cell_wide.reserve(num_pins() - pair_pins);
    ix.pair_offsets.reserve(cells + 1);
    ix.wide_offsets.reserve(cells + 1);
    ix.pair_offsets.assign(1, 0);
    ix.wide_offsets.assign(1, 0);
    ix.pair_degree.assign(cells, 0);
    // slot[z] is the index in pairs of the current cell's entry for
    // neighbour z; an index below the cell's first entry is stale.
    std::vector<std::size_t> slot(cells,
                                  std::numeric_limits<std::size_t>::max());
    for (CellId c = 0; c < cells; ++c) {
      const std::size_t first = ix.pairs.size();
      for (const NetId net : nets_of(c)) {
        const auto net_pins = pins(net);
        if (net_pins.size() > 2) {
          ix.cell_wide.push_back(wide_id[net]);
          continue;
        }
        const CellId z = net_pins[0] == c ? net_pins[1] : net_pins[0];
        ++ix.pair_degree[c];
        if (slot[z] >= first && slot[z] < ix.pairs.size()) {
          ix.pairs[slot[z]].weight += 2;  // a parallel net
        } else {
          slot[z] = ix.pairs.size();
          ix.pairs.push_back({z, 2});
        }
      }
      ix.pair_offsets.push_back(ix.pairs.size());
      ix.wide_offsets.push_back(ix.cell_wide.size());
    }
  });
  return index_->index;
}

Netlist::Builder::Builder(std::size_t num_cells) : num_cells_(num_cells) {
  if (num_cells == 0) {
    throw std::invalid_argument("Netlist must have at least one cell");
  }
  if (num_cells > kMaxCells) {
    throw std::invalid_argument("Netlist cell count " +
                                std::to_string(num_cells) +
                                " exceeds the CellId range");
  }
}

NetId Netlist::Builder::add_net(std::span<const CellId> cells) {
  scratch_.assign(cells.begin(), cells.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  if (scratch_.size() < 2) {
    throw std::invalid_argument("a net must connect at least two distinct cells");
  }
  if (scratch_.back() >= num_cells_) {
    throw std::invalid_argument("net pin refers to a cell out of range");
  }
  net_pins_.insert(net_pins_.end(), scratch_.begin(), scratch_.end());
  net_offsets_.push_back(net_pins_.size());
  return static_cast<NetId>(net_offsets_.size() - 2);
}

NetId Netlist::Builder::add_net(std::initializer_list<CellId> cells) {
  return add_net(std::span<const CellId>{cells.begin(), cells.size()});
}

Netlist Netlist::Builder::build() const {
  Netlist out;
  out.num_cells_ = num_cells_;
  out.net_offsets_ = net_offsets_;
  out.net_pins_ = net_pins_;

  // Inverse incidence via counting sort over the flat pin array.
  const std::size_t num_nets = net_offsets_.size() - 1;
  std::vector<std::size_t> counts(num_cells_ + 1, 0);
  for (const CellId c : out.net_pins_) ++counts[c + 1];
  for (std::size_t c = 0; c < num_cells_; ++c) counts[c + 1] += counts[c];
  out.cell_offsets_ = counts;
  out.cell_nets_.resize(out.net_pins_.size());
  std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t n = 0; n < num_nets; ++n) {
    for (std::size_t p = net_offsets_[n]; p < net_offsets_[n + 1]; ++p) {
      out.cell_nets_[cursor[net_pins_[p]]++] = static_cast<NetId>(n);
    }
  }
  return out;
}

}  // namespace mcopt::netlist

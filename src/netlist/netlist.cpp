#include "netlist/netlist.hpp"

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>

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

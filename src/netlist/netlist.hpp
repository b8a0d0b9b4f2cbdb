// Hypergraph netlist substrate.
//
// The linear-arrangement problems of the paper (GOLA / NOLA, §4.1) operate
// on "n circuit elements (cells, boards, chips, ...) and connectivity
// information".  We model that as a hypergraph: cells 0..n-1 and nets, each
// net a set of >= 2 distinct cells (its pins).  GOLA is the special case
// where every net has exactly two pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

namespace mcopt::netlist {

using CellId = std::uint32_t;
using NetId = std::uint32_t;

/// The largest cell and net counts a Netlist takes: each id type must
/// index every cell or net and also hold the count itself (the CSR build
/// computes `c + 1` in CellId arithmetic).
inline constexpr std::size_t kMaxCells = std::numeric_limits<CellId>::max();
inline constexpr std::size_t kMaxNets = std::numeric_limits<NetId>::max();

/// Immutable hypergraph with forward (net -> cells) and inverse
/// (cell -> nets) incidence, both in CSR form.  Construct via Builder.
class Netlist {
 public:
  class Builder;

  Netlist() = default;

  [[nodiscard]] std::size_t num_cells() const noexcept { return num_cells_; }
  [[nodiscard]] std::size_t num_nets() const noexcept {
    return net_offsets_.empty() ? 0 : net_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_pins() const noexcept { return net_pins_.size(); }

  /// Pins (cells) of net `n`, in insertion order, duplicates removed.
  [[nodiscard]] std::span<const CellId> pins(NetId n) const noexcept {
    return {net_pins_.data() + net_offsets_[n],
            net_offsets_[n + 1] - net_offsets_[n]};
  }

  /// Nets incident to cell `c`.
  [[nodiscard]] std::span<const NetId> nets_of(CellId c) const noexcept {
    return {cell_nets_.data() + cell_offsets_[c],
            cell_offsets_[c + 1] - cell_offsets_[c]};
  }

  /// Number of nets incident to cell `c` ("connectedness" in Goto's
  /// heuristic).
  [[nodiscard]] std::size_t degree(CellId c) const noexcept {
    return cell_offsets_[c + 1] - cell_offsets_[c];
  }

  /// True when every net has exactly two pins (a GOLA / graph instance).
  [[nodiscard]] bool is_graph() const noexcept;

  /// Largest pin count over all nets; 0 for a net-free list.
  [[nodiscard]] std::size_t max_net_size() const noexcept;

 private:
  std::size_t num_cells_ = 0;
  // CSR: net n occupies net_pins_[net_offsets_[n] .. net_offsets_[n+1]).
  std::vector<std::size_t> net_offsets_{0};
  std::vector<CellId> net_pins_;
  // CSR inverse: cell c is on nets cell_nets_[cell_offsets_[c] .. ...c+1]).
  std::vector<std::size_t> cell_offsets_;
  std::vector<NetId> cell_nets_;
};

/// Incremental construction with validation.  Throws std::invalid_argument
/// on a cell count outside [1, kMaxCells], out-of-range pins or nets with
/// fewer than two distinct pins.
/// Accumulates directly into the CSR arrays the Netlist will own — no
/// vector-of-vectors mirror, so building a large netlist costs one flat
/// allocation stream instead of one heap node per net.
class Netlist::Builder {
 public:
  explicit Builder(std::size_t num_cells);

  /// Adds a net over the given cells.  Duplicate pins within a net are
  /// collapsed; a net must connect at least two distinct cells.
  /// Returns the new net's id.
  NetId add_net(std::span<const CellId> cells);
  NetId add_net(std::initializer_list<CellId> cells);

  [[nodiscard]] std::size_t num_cells() const noexcept { return num_cells_; }
  [[nodiscard]] std::size_t num_nets() const noexcept {
    return net_offsets_.size() - 1;
  }

  /// Finalizes into an immutable Netlist (builds the inverse incidence).
  [[nodiscard]] Netlist build() const;

 private:
  std::size_t num_cells_;
  // CSR under construction: net n is net_pins_[net_offsets_[n] ..
  // net_offsets_[n+1]), sorted and deduplicated at add_net time.
  std::vector<std::size_t> net_offsets_{0};
  std::vector<CellId> net_pins_;
  std::vector<CellId> scratch_;  // add_net sort/dedup buffer
};

}  // namespace mcopt::netlist

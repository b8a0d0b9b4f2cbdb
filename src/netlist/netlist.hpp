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
#include <memory>
#include <mutex>
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

/// Each cell's nets split by pin count, the form the density kernels read
/// them in (linarr/density.hpp).  Two-pin nets: cell c's distinct two-pin
/// neighbours are pairs[pair_offsets[c] .. pair_offsets[c+1]), each with
/// weight 2 x the number of two-pin nets joining the two cells (parallel
/// nets merged), and pair_degree[c] counts c's two-pin nets.  Nets of
/// three or more pins ("wide" nets) are renumbered 0..m-1 in NetId order:
/// wide_net[w] is wide net w's NetId, and cell c is on wide nets
/// cell_wide[wide_offsets[c] .. wide_offsets[c+1]).
struct NetIndex {
  struct Neighbour {
    CellId cell;
    int weight;
  };

  std::vector<std::size_t> pair_offsets;
  std::vector<Neighbour> pairs;
  std::vector<int> pair_degree;
  std::vector<NetId> wide_net;
  std::vector<std::size_t> wide_offsets;
  std::vector<std::uint32_t> cell_wide;

  [[nodiscard]] std::span<const Neighbour> neighbours(CellId c) const {
    return {pairs.data() + pair_offsets[c],
            pair_offsets[c + 1] - pair_offsets[c]};
  }
  [[nodiscard]] std::span<const std::uint32_t> wide_nets_of(CellId c) const {
    return {cell_wide.data() + wide_offsets[c],
            wide_offsets[c + 1] - wide_offsets[c]};
  }
};

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

  /// The nets split by pin count (NetIndex).  Built on the first call,
  /// from any thread (concurrent first calls build it once), and shared
  /// by every copy of this netlist, so each DensityState on it reads the
  /// same index instead of deriving its own.  Empty on a default-
  /// constructed netlist.
  [[nodiscard]] const NetIndex& net_index() const;

 private:
  // The lazily built index; a copy shares the pointer, which is sound
  // because the incidence it is derived from never changes after build().
  struct IndexSlot {
    std::once_flag once;
    NetIndex index;
  };

  std::size_t num_cells_ = 0;
  // CSR: net n occupies net_pins_[net_offsets_[n] .. net_offsets_[n+1]).
  std::vector<std::size_t> net_offsets_{0};
  std::vector<CellId> net_pins_;
  // CSR inverse: cell c is on nets cell_nets_[cell_offsets_[c] .. ...c+1]).
  std::vector<std::size_t> cell_offsets_;
  std::vector<NetId> cell_nets_;
  std::shared_ptr<IndexSlot> index_ = std::make_shared<IndexSlot>();
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

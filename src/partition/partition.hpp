// Balanced two-way circuit partitioning.
//
// The circuit partition problem is the original application of [KIRK83]
// (schedule Y1 = 10, Yi = 0.9 * Yi-1, k = 6, quoted in the paper's §1) and
// one of the two extra problems the authors studied in [NAHA84] (§5).  A
// partition assigns every cell to side 0 or 1 with sizes differing by at
// most one; the cost is the cut size — the number of nets with pins on both
// sides.  PartitionState maintains the cut incrementally under single-cell
// flips and cross-side swaps, one form per net kind:
//
//   * two-pin nets as Kernighan–Lin gains: gain(c) is the number of c's
//     two-pin nets that are cut minus the number that are not, so a swap
//     of a and b changes their cut by -(gain(a) + gain(b)) + 2 c(a,b),
//     c(a,b) the count of two-pin nets joining them, read from a's merged
//     neighbour list (netlist::NetIndex).  A committed flip re-signs the
//     cell's gain and moves each neighbour's by the net weight.
//   * nets of three or more pins as pin counts on side 0, numbered as the
//     NetIndex numbers its wide nets; a speculation moves the counts of
//     the two cells' wide nets in place, and a discard moves them back.
//
// The constructor and rebuild() read the nets alone; the index is taken
// on the first flip or speculation, so building a state that is only
// scored (a full recount) costs no index.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace mcopt::partition {

using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;

class PartitionState {
 public:
  /// Binds to `netlist` (must outlive this object) with the given
  /// assignment.  Throws std::invalid_argument on a size mismatch.
  PartitionState(const Netlist& netlist, std::vector<std::uint8_t> sides);

  /// Balanced random assignment: exactly ceil(n/2) cells on side 0.
  [[nodiscard]] static PartitionState random(const Netlist& netlist,
                                             util::Rng& rng);

  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }
  [[nodiscard]] std::uint8_t side(CellId c) const noexcept {
    return sides_[c];
  }
  [[nodiscard]] const std::vector<std::uint8_t>& sides() const noexcept {
    return sides_;
  }
  [[nodiscard]] int cut() const noexcept { return cut_; }
  [[nodiscard]] std::size_t side_count(std::uint8_t side) const noexcept {
    return side == 0 ? side0_count_ : sides_.size() - side0_count_;
  }

  /// Kernighan–Lin's D value of `c`: its cut two-pin nets minus its uncut
  /// ones (parallel nets count once each), so flipping c alone lowers the
  /// two-pin cut by gain(c).  Nets of three or more pins do not enter it.
  [[nodiscard]] int gain(CellId c) const noexcept { return gain_[c]; }

  /// |#side0 - #side1| <= 1.
  [[nodiscard]] bool is_balanced() const noexcept;

  /// Flips one cell to the other side.  O(deg).
  void flip(CellId c);

  /// Swaps two cells across the cut (a and b must be on opposite sides);
  /// preserves balance.  O(deg(a) + deg(b)).
  void swap(CellId a, CellId b);

  /// Speculatively evaluates swap(a, b) without committing: the exact
  /// candidate cut is speculative_cut().  O(deg(a)) on two-pin nets plus
  /// both cells' wide nets.  Exactly one of commit_speculation() /
  /// discard_speculation() must follow; a copy taken meanwhile carries
  /// the speculation.
  void speculate_swap(CellId a, CellId b);

  /// Exact cut of the candidate recorded by the pending speculation.
  [[nodiscard]] int speculative_cut() const noexcept { return spec_cut_; }

  /// True while a speculation is pending.
  [[nodiscard]] bool speculating() const noexcept { return spec_pending_; }

  /// Commits the pending speculation: the two cells' neighbours' gains.
  void commit_speculation();

  /// Drops the pending speculation: the two cells' wide counts move back.
  void discard_speculation();

  /// Recounts the gains, the wide counts, the cut and the side sizes from
  /// scratch and compares; tests assert this.  False while a speculation
  /// is pending.
  [[nodiscard]] bool verify() const;

 private:
  /// A net of three or more pins: its pins on side 0, and all its pins.
  struct WideCount {
    int on_side0;
    int pins;
    friend bool operator==(const WideCount&, const WideCount&) = default;
  };

  void rebuild();
  const netlist::NetIndex& index();
  /// Moves the gains of c's two-pin neighbours for c leaving side `from`.
  void move_neighbour_gains(const netlist::NetIndex& index, CellId c,
                            std::uint8_t from);
  /// Adds `step` to the side-0 count of each of c's wide nets; returns the
  /// change in their cut.
  int step_wide(const netlist::NetIndex& index, CellId c, int step);

  const Netlist* netlist_;
  const netlist::NetIndex* index_ = nullptr;  // taken on first use
  std::vector<std::uint8_t> sides_;
  std::vector<int> gain_;         // per cell: KL's D over two-pin nets
  std::vector<WideCount> wide_;   // per wide net, in NetIndex numbering
  int cut_ = 0;
  std::size_t side0_count_ = 0;

  bool spec_pending_ = false;
  CellId spec_a_ = 0;
  CellId spec_b_ = 0;
  int spec_weight_ = 0;  // 2 c(a,b)
  int spec_cut_ = 0;
};

}  // namespace mcopt::partition

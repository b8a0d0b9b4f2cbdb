// Density bookkeeping for a netlist under a linear arrangement.
//
// A net whose pins occupy positions [lo, hi] crosses exactly the boundaries
// lo, lo+1, ..., hi-1 (boundary b separates positions b and b+1).  The
// *density* of an arrangement is the maximum crossing count over all n-1
// boundaries — the quantity GOLA/NOLA minimize (§4.1).  The *total span*
// (sum of crossing counts == sum of net extents) is also maintained; it is
// the wirelength-style objective used by an ablation bench.
//
// DensityState keeps, incrementally:
//   * per-net position extrema (lo, hi),
//   * per-boundary crossing counts,
//   * a histogram of crossing counts with a lazily-decremented maximum, so
//     density() is O(1) amortized after O(pins-touched) move updates.
//
// Moves are applied through DensityState so the arrangement and the counts
// never diverge; `verify()` recomputes everything from scratch for tests.
//
// Two ways to make a move:
//   * speculate_swap/speculate_move — the path LinArrProblem runs —
//     evaluate a move without committing anything.  A move can change
//     crossing counts only on the boundaries of its window [min, max) of
//     the two positions.  Each touched net adds its per-boundary change to
//     one reserved difference array (window_diff_) as a few ±1 point
//     writes, and a single prefix-sum pass over the window yields the
//     changed boundaries and their deltas, the window's new maximum and
//     the total-span delta, zeroing the array as it goes.  For a swap the
//     writes come from the cached extrema in O(1) per net: a pin moving
//     right from lo to hi changes its net's count on boundary b by
//     [L <= b] - [b < H], where L/H are the extrema of the net's other
//     pins (a leftward pin, the negation); only a pin at the trailing end
//     of a net of three or more pins (the low end for a rightward pin)
//     walks the net.  A move walks the pins of every net on the cells in
//     its window.  The count-of-counts histogram minus the changed
//     boundaries' old values gives the largest cut outside the changed
//     set, so the candidate density/total span are exact integers a
//     Metropolis loop can test, then commit_speculation() in O(changed)
//     or discard_speculation() in O(changed) — a rejected proposal never
//     writes cuts_, the histogram, or the arrangement.  A commit makes one
//     histogram update per changed boundary instead of one per crossing
//     unit.
//   * apply_swap/apply_move mutate the committed state in place.  They
//     are self-inverse and obviously correct: the reference the density
//     tests hold the speculative kernels to, beside verify()'s full
//     recount.
#pragma once

#include <cstddef>
#include <vector>

#include "linarr/arrangement.hpp"
#include "netlist/netlist.hpp"

namespace mcopt::linarr {

using netlist::NetId;
using netlist::Netlist;

class DensityState {
 public:
  /// Binds to `netlist` (which must outlive this object) and computes all
  /// counts for `arrangement`.
  DensityState(const Netlist& netlist, Arrangement arrangement);

  /// Copies re-reserve every per-move scratch buffer: vector copies shrink
  /// capacity to size, and the scratch vectors are empty between moves, so
  /// a defaulted copy (Problem::clone()'s path into the parallel engine)
  /// would silently re-allocate on the worker's first hot-loop move.
  DensityState(const DensityState& other);
  DensityState& operator=(const DensityState& other);
  DensityState(DensityState&&) noexcept = default;
  DensityState& operator=(DensityState&&) noexcept = default;
  ~DensityState() = default;

  [[nodiscard]] const Arrangement& arrangement() const noexcept {
    return arrangement_;
  }
  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }

  /// Max crossing count over all boundaries; 0 when n == 1.
  [[nodiscard]] int density() const noexcept;

  /// Sum of crossing counts over all boundaries (== sum of net spans).
  [[nodiscard]] long long total_span() const noexcept { return total_span_; }

  /// Crossing count at boundary b (between positions b and b+1).
  [[nodiscard]] int cut_at(std::size_t boundary) const noexcept {
    return cuts_[boundary];
  }

  /// Applies a pairwise interchange of positions p and q.  O(pins of nets
  /// incident to the two cells).  Self-inverse: applying twice restores.
  void apply_swap(std::size_t p, std::size_t q);

  /// Applies a single-exchange (remove at `from`, insert at `to`).
  /// O(pins of nets incident to the cells in [min(from,to), max(from,to)]).
  void apply_move(std::size_t from, std::size_t to);

  /// Speculatively evaluates a pairwise interchange of positions p and q
  /// (p != q, either order): records the changed nets and boundaries and
  /// the exact candidate density / total span, but commits nothing.
  /// O(nets of the two cells + |p - q|).  Exactly one of
  /// commit_speculation()/discard_speculation() must follow before the
  /// next move (speculative or applied).
  void speculate_swap(std::size_t p, std::size_t q);

  /// Speculatively evaluates a single-exchange (remove at `from`, insert
  /// at `to`, from != to), same contract as speculate_swap().
  void speculate_move(std::size_t from, std::size_t to);

  /// Exact density of the candidate arrangement recorded by the pending
  /// speculation.
  [[nodiscard]] int speculative_density() const noexcept {
    return spec_density_;
  }

  /// Exact total span of the candidate arrangement recorded by the
  /// pending speculation.
  [[nodiscard]] long long speculative_total_span() const noexcept {
    return spec_total_span_;
  }

  /// True while a speculation is pending.
  [[nodiscard]] bool speculating() const noexcept {
    return spec_kind_ != SpecKind::kNone;
  }

  /// Commits the pending speculation in O(changed boundaries + changed
  /// nets): one histogram update per changed boundary, extrema from the
  /// journal, then the arrangement move itself.
  void commit_speculation();

  /// Drops the pending speculation in O(changed boundaries); only scratch
  /// is reset.
  void discard_speculation();

  /// Replaces the arrangement wholesale (full recount).
  void reset(Arrangement arrangement);

  /// Recomputes from scratch and compares with the incremental state.
  /// Returns true when they agree, no speculation is pending and every
  /// per-move scratch array (window_diff_ included) is back to zero; tests
  /// assert this after random moves.
  [[nodiscard]] bool verify() const;

  /// True when every per-move scratch buffer holds its full reservation;
  /// the clone regression test asserts this so cloned workers stay
  /// allocation-free on the hot path.
  [[nodiscard]] bool scratch_reserved() const noexcept;

 private:
  enum class SpecKind : unsigned char { kNone, kSwap, kMove };

  void rebuild();
  void reserve_scratch();
  void retire_net(NetId n);    // remove net's span from cuts_/histogram
  void activate_net(NetId n);  // recompute extrema, add span back
  void add_span(std::size_t lo, std::size_t hi, int delta);
  void bump_boundary(std::size_t b, int delta);
  void spec_journal(NetId n, std::size_t new_lo, std::size_t new_hi);
  void spec_swap_pin(NetId n, std::size_t from, std::size_t to);
  void spec_scan(std::size_t lo, std::size_t hi);

  const Netlist* netlist_;
  Arrangement arrangement_;
  std::vector<std::size_t> net_lo_;
  std::vector<std::size_t> net_hi_;
  std::vector<int> cuts_;            // size n-1
  std::vector<int> cut_histogram_;   // value -> #boundaries, size num_nets+1
  mutable int max_cut_ = 0;          // lazily tightened upper bound
  long long total_span_ = 0;
  std::vector<NetId> touched_;       // scratch, de-duplicated per move
  std::vector<char> touched_mark_;

  // Speculation journal (SoA) and scratch.  All buffers are sized once
  // (constructor / copy) and only reset between moves, so the
  // speculate/commit/discard cycle is allocation-free.
  SpecKind spec_kind_ = SpecKind::kNone;
  std::size_t spec_a_ = 0;  // swap: positions; move: from -> to
  std::size_t spec_b_ = 0;
  int spec_density_ = 0;
  long long spec_total_span_ = 0;
  // The journal arrays are sized, not grown: an entry is written at the
  // count and the count advances only when it is kept, so neither the
  // journal nor the window scan branches on whether a net or boundary
  // changed.
  std::size_t spec_net_count_ = 0;
  std::vector<NetId> spec_nets_;           // journal: net whose extrema move
  std::vector<std::size_t> spec_new_lo_;   //   parallel: candidate lo
  std::vector<std::size_t> spec_new_hi_;   //   parallel: candidate hi
  std::size_t spec_boundary_count_ = 0;
  std::vector<std::size_t> spec_boundaries_;  // changed boundaries, ascending
  std::vector<int> spec_deltas_;           //   parallel: crossing delta
  std::vector<int> window_diff_;    // size n, zero between moves
  std::vector<int> removed_at_;     // old cut value -> #changed boundaries
};

/// One-shot density of an arrangement (builds a temporary state).
[[nodiscard]] int density_of(const Netlist& netlist,
                             const Arrangement& arrangement);

}  // namespace mcopt::linarr

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
//   * per-boundary crossing counts and their exact maximum,
//   * the nets of three or more pins in one form, chosen by the kernel
//     rule below: each net's position bits, or on instances that take the
//     column kernel a position-major index of those nets instead,
//   * on instances that take the weight rows (below), per cell the
//     weights of its two-pin nets by position.
//
// Nets take one of two paths by pin count alone.  The split is the
// netlist's, not the state's: Netlist::net_index() builds the neighbour
// lists, degrees and wide-net numbering below once per netlist, on first
// use, and every state on that netlist (and every copy of one) keeps a
// pointer to it, so constructing, copying and clone()-ing a state copy
// none of it.
//   * Two-pin nets are a per-cell neighbour list: for each cell, its
//     distinct two-pin neighbours z with weight 2 x (the number of two-pin
//     nets joining the two cells; parallel nets are merged), plus the
//     cell's two-pin degree.  A two-pin net's extent is the positions of
//     its two pins, so it never enters the journal.  On instances where it
//     pays, a swap reads the same weights from the rows instead.
//   * Nets of three or more pins ("wide" nets) are renumbered 0..m-1 and
//     listed per cell.
//
// Both move kinds score their wide nets with one of two kernels, chosen
// once, at construction, from the instance's own size.  Each kernel reads
// its own form of the wide nets, and the state stores only that one:
//   * The per-net kernel keeps ceil(n/64) words of position bits per wide
//     net (bit p set when one of its pins sits at position p): its extrema
//     are its lowest and highest set bits, and "is it on the cell at p" is
//     a test.  A swap walks the wide nets of the two swapped cells and
//     writes each one's change as point differences (below).  Its cost is
//     the two cells' wide incidences, about 2I/n for I wide pins.
//   * The column kernel keeps, per position p, the set col[p] of wide nets
//     with a pin at p (ceil(m/64) words), and per boundary b the committed
//     prefix set pre[b] = col[0] | ... | col[b], suffix set
//     suf[b] = col[b+1] | ... | col[n-1] and wide crossing count
//     |pre[b] & suf[b]|.  A move on positions lo < hi permutes only the
//     columns of [lo, hi], so only the window's boundaries change: two
//     running ORs over the candidate columns, each reading its end's
//     column first and the rest at one offset, give pre'/suf' there, and
//     |pre'[b] & suf'[b]| minus the committed count joins the two-pin
//     differences (a popcnt per word: the library builds for x86-64-v2).
//     A swap trades col[lo] and col[hi] (offset 0); a single exchange puts
//     the moving cell's column at `to` and shifts the others one step
//     toward `from`.  A swap's commit trades the two columns and copies
//     the speculated window; a single exchange's re-derives the window.
//     Its cost is the window times the words, about (n+1)/3 x ceil(m/64)
//     for a uniformly drawn pair.
//   The rule: the column kernel iff
//     kColumnWordCost x (n+1) x ceil(m/64) x n <= kIncidenceCost x 6 x I,
//   i.e. expected window x words, priced per word, against the two
//   cells' expected wide incidences, priced per incidence.  The prices
//   are 1 and 2: timed with either kernel forced on the same NOLA
//   instances, a window word costs about half an incidence (EXPERIMENTS.md
//   has the crossover data).  Small dense
//   instances (the paper's NOLA 15/150) take the column kernel; large
//   ones, where the window grows as n and the words as m, keep the
//   per-net kernel.  An instance with no wide net keeps no column state.
//
// A swap reads its two-pin weights from one of two layouts, also chosen
// once, at construction, from the instance's size:
//   * The neighbour lists: one clamped write into window_diff_ per
//     neighbour of the two cells, each after a position gather, about
//     2E/n writes for E list entries (E = 2 x the distinct two-pin pairs).
//   * The weight rows: row x, lane q holds W[x][cell at q], the weight
//     between cell x and the cell at position q (0 on the diagonal), as
//     int16 lanes padded to a multiple of 8.  For a swap of x at lo with
//     y at hi (lo < hi), a net of x to the cell at q crosses boundary
//     b in [lo, hi) after the swap iff q <= b and before it iff q > b, a
//     net of y the other way round, and the net joining x and y, counted
//     -1 from each side, keeps its extent, so b changes by
//       prefix_{q <= b} (row_x[q] - row_y[q]) + W[x][y] + deg2(y) - deg2(x)
//     with W[x][y] = row_x[hi]: the pass below subtracts the two rows.
//     A swap commit trades two lanes of every row (n swaps), a single
//     exchange's commit rotates the window's lanes of every row, and a
//     reset rebuilds the rows from the lists.
//   The rule: the rows iff the lane pass runs (below) and
//   n^2 <= kMatrixCellsPerPair x E, with the constant 6, which also bounds
//   the rows at about six int16 per list entry.  It was fitted to the
//   earlier cell-indexed matrix, timed against the lists forced on the
//   same GOLA and NOLA instances (EXPERIMENTS.md): the two tied from
//   n^2/E of 6.5 to 6.8.  It is carried unchanged now that the lists feed
//   the same pass: it keeps every instance the drivers run on the layout
//   it had, so their outputs and timings stand, and refitting it belongs
//   to a rule by memory.  GOLA 15/150 (n^2/E = 1.4), GOLA 60/600 (3.5)
//   and NOLA 15/150 (4.5: a fifth of its nets are two-pin) take the rows;
//   GOLA 240/2400 (12.5) keeps the lists.  An instance with no two-pin net
//   keeps neither.
//
// One pass then reads every move's candidate density, swap or single
// exchange, from either layout:
//   * The lane pass, an SSE2 pass over all lanes with no branch on the
//     window: the two rows' difference (with the rows) plus window_diff_
//     (read as int16 lanes and zeroed as it is read), prefix-summed in
//     register (three shift-adds per vector plus the carried last lane),
//     plus the constant, masked to the window, added to the cuts; their
//     max is the candidate density, exact because outside the window the
//     candidate cut is the committed one, and a masked madd gives the
//     total-span change.  It leaves every lane's delta in
//     spec_lane_delta_ for the commit, 0 outside the window, so the
//     commit adds all of them with vector adds, one per eight lanes,
//     whatever the window.  The lanes are int16 arithmetic
//     modulo 2^16: weights, prefixes and window_diff_ entries may wrap,
//     but only adds and subtracts reach them, and with num_nets <= 32767
//     every committed and candidate cut lies in [0, 32767] and every
//     window delta in [-32767, 32767], so a lane whose true value is one
//     of those holds it exactly.  Lanes outside the window may hold
//     wrapped prefixes; the mask zeroes their delta before the max and
//     the madd read it.  The window mask compares lane indices with lo - 1
//     and hi as signed int16, so the pass also needs n <= 32767 (with the
//     rows, E <= 2 x num_nets already gives n < 628).
//   * The scalar pass, on instances past either bound: the same
//     arithmetic in int, one boundary at a time, its deltas in
//     spec_deltas_.
//   Both read every committed cut, so nothing counts boundaries per cut
//   value.
//
// Moves are applied through DensityState so the arrangement and the counts
// never diverge; `verify()` checks everything against an independent
// from-scratch recount for tests.
//
// Two ways to make a move:
//   * speculate_swap/speculate_move — the path LinArrProblem runs —
//     evaluate a move without committing anything.  A move can change
//     crossing counts only on the boundaries of its window [min, max) of
//     the two positions.  Each net adds its per-boundary change to one
//     reserved difference array (window_diff_) as a few point writes, and
//     the pass above prefix-sums it (with the rows, beside the rows'
//     difference) into the window's deltas, the candidate density and
//     the total-span delta, zeroing the array as it goes.
//     - A swap of cell x at lo with cell y at hi: a pin moving right from
//       lo to hi changes its net's count on boundary b by
//       [L <= b] - [b < H], where L/H are the extrema of the net's other
//       pins (a leftward pin, the negation).  For a two-pin net L = H is
//       the neighbour's position, so the two cells' two-pin nets come to
//       deg2(y) - deg2(x) on every window boundary, then +w at
//       clamp(pos z, lo, hi) for each neighbour z of x and -w for each
//       neighbour z != x of y (with the rows, the formula above instead).
//       A net joining x and y keeps its extent:
//       its -1 and +1 cancel, x's +w for it lands at hi, past the
//       window, and y's is skipped.  In the per-net kernel a wide net's
//       L/H are its extreme set bits with the moving pin's masked off; one
//       on both cells (its bit at the other position is set) adds 0.  The
//       column kernel writes each window boundary's wide-count change
//       instead, in the same difference form.  The swap has no marks.
//     - A single exchange shifts every cell in its window by one.  Each
//       two-pin net with a pin in the window writes its old and new
//       extents (four clamped writes), visited once from its lower pin in
//       the window.  In the per-net kernel each wide net there (once,
//       through touched marks) reads its extrema from its bits: the new
//       ones are the shifted old ones, joined by `to` when the net holds
//       the moving cell.  The column kernel writes each window boundary's
//       wide-count change, as for a swap.
//     Either way the candidate density/total span are exact integers a
//     Metropolis loop can test, then commit_speculation() adds the
//     window's deltas to the cuts and moves the arrangement, the rows'
//     lanes and the wide nets' one stored form, or discard_speculation()
//     drops them in O(1) — a rejected proposal never writes cuts_, the
//     bits, the columns, the rows or the arrangement.  The per-net
//     kernel's journal holds wide-net ids; a commit flips their bits at a
//     swap's two positions or re-derives them after a single exchange.
//   * apply_swap/apply_move mutate the committed state in place: every
//     net with a pin in the move's window is re-spanned from its pin
//     positions before and after the move.  apply_swap is self-inverse,
//     apply_move(to, from) undoes apply_move(from, to), and both are
//     obviously correct: the reference the density tests hold the
//     speculative kernels to, beside verify()'s full recount.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linarr/arrangement.hpp"
#include "netlist/netlist.hpp"

namespace mcopt::linarr {

using netlist::NetId;
using netlist::Netlist;

class DensityState {
 public:
  /// Binds to `netlist` (which must outlive this object) and computes all
  /// counts for `arrangement`.  Copies are member-wise: every scratch
  /// buffer is sized to its full reservation, so a copy (Problem::clone()'s
  /// path into the parallel engine) speculates and commits without
  /// allocating, and a copy taken mid-speculation commits or discards it
  /// as the original would.
  DensityState(const Netlist& netlist, Arrangement arrangement);

  [[nodiscard]] const Arrangement& arrangement() const noexcept {
    return arrangement_;
  }
  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }
  /// The netlist's NetIndex, which this state reads and never copies.
  [[nodiscard]] const netlist::NetIndex& net_index() const noexcept {
    return *index_;
  }

  /// Max crossing count over all boundaries; 0 when n == 1.
  [[nodiscard]] int density() const noexcept { return max_cut_; }

  /// Sum of crossing counts over all boundaries (== sum of net spans).
  [[nodiscard]] long long total_span() const noexcept { return total_span_; }

  /// Crossing count at boundary b (between positions b and b+1).
  [[nodiscard]] int cut_at(std::size_t boundary) const noexcept {
    return cuts_[boundary];
  }

  /// Applies a pairwise interchange of positions p and q.  O(pins and spans
  /// of the nets on the cells in [min(p,q), max(p,q)]).  Self-inverse:
  /// applying twice restores.
  void apply_swap(std::size_t p, std::size_t q);

  /// Applies a single-exchange (remove at `from`, insert at `to`).  O(pins
  /// and spans of the nets on the cells in [min(from,to), max(from,to)]).
  void apply_move(std::size_t from, std::size_t to);

  /// Speculatively evaluates a pairwise interchange of positions p and q
  /// (p != q, either order): records the changed wide nets, the window's
  /// deltas and the exact candidate density / total span, but commits
  /// nothing.  O(the two cells' two-pin neighbours, or with uses_matrix()
  /// none) plus one pass over every boundary (n/8 vectors with
  /// uses_lanes()), plus either the two cells' wide nets, each scanning
  /// at most ceil(n/64) words of position bits, or, with uses_columns(),
  /// |p - q| x ceil(m/64) words.
  /// Exactly one of commit_speculation()/discard_speculation() must follow
  /// before the next move (speculative or applied).
  void speculate_swap(std::size_t p, std::size_t q);

  /// Speculatively evaluates a single-exchange (remove at `from`, insert
  /// at `to`, from != to), same contract as speculate_swap(): the window's
  /// two-pin neighbours, then either its cells' wide nets or, with
  /// uses_columns(), |from - to| x ceil(m/64) words.
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

  /// Commits the pending speculation in O(lanes + changed wide nets):
  /// with uses_lanes() one add per lane (eight to a vector add; lanes
  /// outside the window add 0), else one per window boundary, the
  /// arrangement move itself, then the journaled wide nets' bits, or with
  /// uses_columns() O(window x ceil(m/64)) for the columns instead; with
  /// uses_matrix(), n swaps for a swap's two lanes of every row, or
  /// n x window writes for a single exchange's.
  void commit_speculation();

  /// Drops the pending speculation in O(1): the pass left no scratch
  /// behind, so only the journal count is reset.
  void discard_speculation();

  /// Replaces the arrangement wholesale (full recount).
  void reset(Arrangement arrangement);

  /// Compares the incremental state with an independent recount: cuts,
  /// density and total span against crossing_counts(), with uses_matrix()
  /// the weight rows against ones rebuilt from the two-pin nets, and the
  /// wide nets' one stored form: each one's position bits against its
  /// pins or, with uses_columns() (no bits), the columns, prefix and
  /// suffix sets against ones rebuilt from the pins and the wide crossing
  /// counts against the wide nets' extents.
  /// Returns true when they agree, no speculation is pending and every
  /// per-move difference and mark array (window_diff_ included, its
  /// padding too) is back to zero; tests assert this after random moves.
  /// spec_lane_delta_ and spec_deltas_ are exempt: each pass rewrites the
  /// window it commits.
  [[nodiscard]] bool verify() const;

  /// True when every per-move scratch buffer holds its full reservation;
  /// the clone regression test asserts this so cloned workers stay
  /// allocation-free on the hot path.
  [[nodiscard]] bool scratch_reserved() const noexcept;

  /// True when both speculations score wide nets with the column kernel
  /// rather than net by net: fixed at construction by the rule in the
  /// header comment, so tests can assert which kernel an instance takes.
  [[nodiscard]] bool uses_columns() const noexcept { return uses_columns_; }

  /// True when both speculations read their candidate density with the
  /// int16 lane pass rather than the scalar one: num_nets and n are at
  /// most 32767 (the header comment), fixed at construction.
  [[nodiscard]] bool uses_lanes() const noexcept { return uses_lanes_; }

  /// True when speculate_swap feeds its two-pin nets to the lane pass as
  /// the position-ordered weight rows rather than as neighbour-list
  /// writes into window_diff_: fixed at construction by the rule in the
  /// header comment; implies uses_lanes().
  [[nodiscard]] bool uses_matrix() const noexcept { return uses_matrix_; }

 private:
  enum class SpecKind : unsigned char { kNone, kSwap, kMove };

  void pin_bits(NetId n, std::uint64_t* out) const;  // words_ words

  void choose_paths();  // the layouts and kernels, by the rules above
  void rebuild();
  void reserve_scratch();
  void add_span(std::size_t lo, std::size_t hi, int delta);
  void respan_window(std::size_t lo, std::size_t hi, int delta);
  void refresh_rows();  // every row from the lists and the arrangement
  [[nodiscard]] bool verify_bits() const;
  [[nodiscard]] bool verify_rows() const;
  void rearrange(SpecKind kind, std::size_t a, std::size_t b);
  void apply(SpecKind kind, std::size_t a, std::size_t b);
  template <bool kRows, bool kDiff>
  void spec_lanes(const std::int16_t* row_x, const std::int16_t* row_y,
                  int shift, std::size_t lo, std::size_t hi);
  [[gnu::noinline]] int spec_swap_wide(CellId x, CellId y, std::size_t lo,
                                       std::size_t hi);
  [[gnu::noinline]] void spec_columns(std::size_t lo, std::size_t hi,
                                      std::size_t lo_from,
                                      std::size_t hi_from, std::size_t shift);
  [[gnu::noinline]] void commit_swap_columns(std::size_t lo, std::size_t hi);
  void refresh_columns(std::size_t lo, std::size_t hi);
  [[nodiscard]] bool verify_columns() const;
  void spec_scalar(int shift, std::size_t lo, std::size_t hi);

  const Netlist* netlist_;
  // The netlist's nets split by pin count (netlist::NetIndex): built once
  // per netlist and shared by every state on it and every copy of it.
  const netlist::NetIndex* index_ = nullptr;
  Arrangement arrangement_;

  std::size_t words_ = 0;             // ceil(n/64), 0 with uses_columns_
  std::size_t lanes_ = 0;             // n rounded up to a multiple of 8
  std::vector<std::uint64_t> bits_;   // words_ per wide net, per-net kernel
  std::vector<int> cuts_;            // n-1 boundaries, then 0 to lanes_
  int max_cut_ = 0;                  // exact
  long long total_span_ = 0;
  std::vector<char> touched_mark_;   // scratch: per-net kernel, per move

  // Speculation journal and scratch.  All buffers are sized once, at
  // construction, and only reset between moves, so the
  // speculate/commit/discard cycle is allocation-free.
  SpecKind spec_kind_ = SpecKind::kNone;
  std::size_t spec_a_ = 0;  // swap: positions; move: from -> to
  std::size_t spec_b_ = 0;
  int spec_density_ = 0;
  long long spec_total_span_ = 0;
  // The journal is sized, not grown: an entry is written at the count
  // and the count advances only when it is kept, so it does not branch on
  // whether a net changed.
  std::size_t spec_net_count_ = 0;
  std::vector<std::uint32_t> spec_nets_;   // journal: per-net kernel only
  std::vector<int> window_diff_;    // size lanes_, zero between moves
  // Per boundary, the window's deltas: the lane pass's, size lanes_ with
  // uses_lanes_ (else empty), or the scalar pass's, size lanes_ without.
  std::vector<std::int16_t> spec_lane_delta_;
  std::vector<int> spec_deltas_;
  // Column-kernel scratch, laid out as pre_/suf_/wide_cut_: a move on
  // [lo, hi] writes rows lo+1..hi and entries lo..hi-1.
  std::vector<std::uint64_t> spec_pre_;
  std::vector<std::uint64_t> spec_suf_;
  std::vector<int> spec_wide_cut_;

  // The column kernel's state, empty unless uses_columns_ (declared last,
  // so the members a GOLA move reads keep their offsets).  Each row is
  // net_words_ words, a set of wide nets: col_ row p holds the nets with
  // a pin at position p; pre_ row k = col rows 0..k-1 ORed, suf_ row k =
  // col rows k..n-1 ORed (k = 0..n), so boundary b's left and right sets
  // are row b+1 of each; wide_cut_[b] = |pre_ row b+1 & suf_ row b+1|.
  bool uses_columns_ = false;
  std::size_t net_words_ = 0;         // ceil(m/64)
  std::vector<std::uint64_t> col_;    // n rows
  std::vector<std::uint64_t> pre_;    // n+1 rows
  std::vector<std::uint64_t> suf_;    // n+1 rows
  std::vector<int> wide_cut_;         // size n-1

  // The two-pin weight rows, empty unless uses_matrix_: n rows of lanes_
  // int16, row x lane q holding the weight between cell x and the cell
  // at position q modulo 2^16; rearrange() permutes every row's lanes
  // with the arrangement.
  bool uses_lanes_ = false;
  bool uses_matrix_ = false;
  std::vector<std::int16_t> rows_;
};

/// [lowest, highest] pin position of `net` under `arrangement`.
// mcopt: hot
[[nodiscard]] inline std::pair<std::size_t, std::size_t> net_extent(
    const Netlist& netlist, const Arrangement& arrangement, NetId net) {
  const auto pins = netlist.pins(net);  // at least two (Netlist::Builder)
  std::size_t lo = arrangement.position_of(pins[0]);
  std::size_t hi = lo;
  for (const CellId cell : pins.subspan(1)) {
    std::size_t pos = arrangement.position_of(cell);
    // An empty asm holds `pos` in a register, so -O3 leaves the loop
    // scalar: its pcmpgtq vector form costs more over a net's few pins.
    asm("" : "+r"(pos));
    lo = std::min(lo, pos);
    hi = std::max(hi, pos);
  }
  return {lo, hi};
}

/// Crossing count of every boundary (size n-1), recounted from scratch in
/// one pass: a difference array over the net extents, read from the pin
/// positions.  Builds no DensityState; DensityState::verify() holds the
/// incremental counts to it.
[[nodiscard]] std::vector<int> crossing_counts(const Netlist& netlist,
                                               const Arrangement& arrangement);

/// One-shot density of an arrangement: the maximum of crossing_counts().
[[nodiscard]] int density_of(const Netlist& netlist,
                             const Arrangement& arrangement);

}  // namespace mcopt::linarr

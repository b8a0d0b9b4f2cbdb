#include "linarr/density.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::linarr {

DensityState::DensityState(const Netlist& netlist, Arrangement arrangement)
    : netlist_(&netlist), arrangement_(std::move(arrangement)) {
  if (arrangement_.size() != netlist.num_cells()) {
    throw std::invalid_argument(
        "DensityState: arrangement size != netlist cell count");
  }
  index_nets();
  rebuild();
  reserve_scratch();
}

DensityState::DensityState(const DensityState& other)
    : netlist_(other.netlist_),
      arrangement_(other.arrangement_),
      pair_offsets_(other.pair_offsets_),
      pairs_(other.pairs_),
      pair_degree_(other.pair_degree_),
      wide_net_(other.wide_net_),
      wide_offsets_(other.wide_offsets_),
      cell_wide_(other.cell_wide_),
      net_lo_(other.net_lo_),
      net_hi_(other.net_hi_),
      cuts_(other.cuts_),
      cut_histogram_(other.cut_histogram_),
      max_cut_(other.max_cut_),
      total_span_(other.total_span_) {
  MCOPT_DCHECK(!other.speculating(), "copying a speculating DensityState");
  reserve_scratch();
}

DensityState& DensityState::operator=(const DensityState& other) {
  if (this != &other) *this = DensityState{other};
  return *this;
}

void DensityState::index_nets() {
  const Netlist& nl = *netlist_;
  const std::size_t cells = nl.num_cells();
  std::vector<std::uint32_t> wide_id(nl.num_nets(), 0);
  std::size_t pair_pins = 0;
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    if (nl.pins(net).size() > 2) {
      wide_id[net] = static_cast<std::uint32_t>(wide_net_.size());
      wide_net_.push_back(net);
    } else {
      pair_pins += 2;
    }
  }
  pairs_.reserve(pair_pins);
  cell_wide_.reserve(nl.num_pins() - pair_pins);
  pair_offsets_.reserve(cells + 1);
  wide_offsets_.reserve(cells + 1);
  // slot[z] is the index in pairs_ of the current cell's entry for
  // neighbour z; an index below the cell's first entry is stale.
  std::vector<std::size_t> slot(cells, std::numeric_limits<std::size_t>::max());
  pair_offsets_.assign(1, 0);
  wide_offsets_.assign(1, 0);
  pair_degree_.assign(cells, 0);
  for (CellId c = 0; c < cells; ++c) {
    const std::size_t first = pairs_.size();
    for (const NetId net : nl.nets_of(c)) {
      const auto pins = nl.pins(net);
      if (pins.size() > 2) {
        cell_wide_.push_back(wide_id[net]);
        continue;
      }
      const CellId z = pins[0] == c ? pins[1] : pins[0];
      ++pair_degree_[c];
      if (slot[z] >= first && slot[z] < pairs_.size()) {
        pairs_[slot[z]].weight += 2;  // a parallel net
      } else {
        slot[z] = pairs_.size();
        pairs_.push_back({z, 2});
      }
    }
    pair_offsets_.push_back(pairs_.size());
    wide_offsets_.push_back(cell_wide_.size());
  }
  net_lo_.resize(wide_net_.size());
  net_hi_.resize(wide_net_.size());
}

void DensityState::reserve_scratch() {
  // A move touches at most every wide net and every boundary, so one
  // reservation up front keeps every per-move scratch buffer
  // allocation-free for the life of the state (including clones — vector
  // copies shrink capacity to size, which is zero for empty scratch).
  const std::size_t wide = wide_net_.size();
  const std::size_t boundaries = cuts_.size();
  touched_.reserve(wide);
  touched_mark_.assign(wide, 0);
  spec_net_count_ = 0;
  spec_nets_.assign(wide, 0);
  spec_new_lo_.assign(wide, 0);
  spec_new_hi_.assign(wide, 0);
  spec_boundary_count_ = 0;
  spec_boundaries_.assign(boundaries, 0);
  spec_deltas_.assign(boundaries, 0);
  window_diff_.assign(arrangement_.size(), 0);
  removed_at_.assign(cut_histogram_.size(), 0);
}

bool DensityState::scratch_reserved() const noexcept {
  const std::size_t wide = wide_net_.size();
  const std::size_t boundaries = cuts_.size();
  return touched_.capacity() >= wide && touched_mark_.size() == wide &&
         spec_nets_.size() == wide && spec_new_lo_.size() == wide &&
         spec_new_hi_.size() == wide &&
         spec_boundaries_.size() == boundaries &&
         spec_deltas_.size() == boundaries &&
         window_diff_.size() == arrangement_.size() &&
         removed_at_.size() == cut_histogram_.size();
}

std::pair<std::size_t, std::size_t> DensityState::extent(NetId n) const {
  std::size_t lo = arrangement_.size();
  std::size_t hi = 0;
  for (const CellId cell : netlist_->pins(n)) {
    const std::size_t pos = arrangement_.position_of(cell);
    lo = std::min(lo, pos);
    hi = std::max(hi, pos);
  }
  return {lo, hi};
}

void DensityState::rebuild() {
  // Every net's extent into a difference array over the boundaries (the
  // last entry only ever collects a -1), then one prefix-sum pass.  Wide
  // nets are numbered in NetId order, so one cursor finds each as the
  // nets go by and records its extrema.
  const std::size_t n = arrangement_.size();
  cuts_.assign(n, 0);
  std::size_t w = 0;
  for (NetId net = 0; net < netlist_->num_nets(); ++net) {
    const auto [lo, hi] = extent(net);
    ++cuts_[lo];
    --cuts_[hi];
    if (w < wide_net_.size() && wide_net_[w] == net) {
      net_lo_[w] = lo;
      net_hi_[w] = hi;
      ++w;
    }
  }
  cuts_.pop_back();
  cut_histogram_.assign(netlist_->num_nets() + 2, 0);
  int cut = 0;
  total_span_ = 0;
  max_cut_ = 0;
  for (int& entry : cuts_) {
    cut += entry;
    entry = cut;
    ++cut_histogram_[static_cast<std::size_t>(cut)];
    total_span_ += cut;
    max_cut_ = std::max(max_cut_, cut);
  }
}

int DensityState::density() const noexcept {
  while (max_cut_ > 0 &&
         cut_histogram_[static_cast<std::size_t>(max_cut_)] == 0) {
    --max_cut_;
  }
  return max_cut_;
}

// mcopt: hot
void DensityState::bump_boundary(std::size_t b, int delta) {
  const int old_cut = cuts_[b];
  const int new_cut = old_cut + delta;
  cuts_[b] = new_cut;
  --cut_histogram_[static_cast<std::size_t>(old_cut)];
  ++cut_histogram_[static_cast<std::size_t>(new_cut)];
  if (new_cut > max_cut_) max_cut_ = new_cut;
  total_span_ += delta;
}

// mcopt: hot
void DensityState::add_span(std::size_t lo, std::size_t hi, int delta) {
  for (std::size_t b = lo; b < hi; ++b) bump_boundary(b, delta);
}

// mcopt: hot
void DensityState::respan_window(std::size_t lo, std::size_t hi, int delta) {
  // Adds `delta` x the span of every net with a pin at a position in
  // [lo, hi], each once: from its lowest pin in the window.
  for (std::size_t pos = lo; pos <= hi; ++pos) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      const auto pins = netlist_->pins(net);
      const bool lowest_in_window =
          std::none_of(pins.begin(), pins.end(), [&](CellId cell) {
            const std::size_t at = arrangement_.position_of(cell);
            return at >= lo && at < pos;
          });
      if (!lowest_in_window) continue;
      const auto [net_lo, net_hi] = extent(net);
      add_span(net_lo, net_hi, delta);
    }
  }
}

// mcopt: hot
void DensityState::rearrange(SpecKind kind, std::size_t a, std::size_t b) {
  if (kind == SpecKind::kSwap) {
    arrangement_.swap_positions(a, b);
  } else {
    arrangement_.move_position(a, b);
  }
}

// mcopt: hot
void DensityState::apply(SpecKind kind, std::size_t a, std::size_t b) {
  // Either move permutes the cells of its window [lo, hi] among those
  // positions, so the nets with a pin in it are the same before and
  // after, and no other net changes.
  const auto lo = std::min(a, b);
  const auto hi = std::max(a, b);
  respan_window(lo, hi, -1);
  rearrange(kind, a, b);
  respan_window(lo, hi, +1);
  for (std::size_t pos = lo; pos <= hi; ++pos) {
    for (const std::uint32_t w : wide_nets_of(arrangement_.cell_at(pos))) {
      std::tie(net_lo_[w], net_hi_[w]) = extent(wide_net_[w]);
    }
  }
}

// mcopt: hot
void DensityState::apply_swap(std::size_t p, std::size_t q) {
  MCOPT_DCHECK(p < arrangement_.size() && q < arrangement_.size(),
               "swap position out of range");
  if (p != q) apply(SpecKind::kSwap, p, q);
}

// mcopt: hot
void DensityState::apply_move(std::size_t from, std::size_t to) {
  MCOPT_DCHECK(from < arrangement_.size() && to < arrangement_.size(),
               "move position out of range");
  if (from != to) apply(SpecKind::kMove, from, to);
}

// mcopt: hot
void DensityState::spec_journal(std::uint32_t w, std::size_t new_lo,
                                std::size_t new_hi) {
  // A move visits each wide net at most once, so the count stays below
  // the number of wide nets at every write.
  spec_nets_[spec_net_count_] = w;
  spec_new_lo_[spec_net_count_] = new_lo;
  spec_new_hi_[spec_net_count_] = new_hi;
  spec_net_count_ += static_cast<std::size_t>(new_lo != net_lo_[w] ||
                                              new_hi != net_hi_[w]);
}

// mcopt: hot
void DensityState::spec_swap_pin(std::uint32_t w, std::size_t from,
                                 std::size_t to) {
  // L/H are the lowest/highest positions of the wide net's *other* pins.
  // The cached extrema give them unless the moving pin is one of the
  // extrema.  A pin at the net's leading end (the end it moves toward:
  // the high end for a rightward pin) has the missing value behind
  // `from`, where any stand-in clamps alike, so the opposite extremum
  // serves.  Only a pin at the trailing end walks the net.
  const std::size_t old_lo = net_lo_[w];
  const std::size_t old_hi = net_hi_[w];
  std::size_t other_lo = old_lo;
  std::size_t other_hi = old_hi;
  const bool rightward = from < to;
  const bool trailing = rightward ? from == old_lo : from == old_hi;
  if (trailing) {
    other_lo = arrangement_.size();
    other_hi = 0;
    for (const CellId cell : netlist_->pins(wide_net_[w])) {
      const std::size_t pos = arrangement_.position_of(cell);
      if (pos == from) continue;
      other_lo = std::min(other_lo, pos);
      other_hi = std::max(other_hi, pos);
    }
  } else {
    if (from == old_lo) other_lo = old_hi;
    if (from == old_hi) other_hi = old_lo;
  }
  spec_journal(w, std::min(other_lo, to), std::max(other_hi, to));
  // On boundary b in [lo, hi) a rightward pin changes the net's crossing
  // count by [L <= b] - [b < H] = [L <= b] + [H <= b] - 1, a leftward one
  // by the negation; the caller folds the -1 into window_diff_[lo].
  // Clamping L and H into [lo, hi] keeps every write inside the window.
  const std::size_t lo = std::min(from, to);
  const std::size_t hi = std::max(from, to);
  const int sign = rightward ? 1 : -1;
  window_diff_[std::clamp(other_lo, lo, hi)] += sign;
  window_diff_[std::clamp(other_hi, lo, hi)] += sign;
}

// mcopt: hot
void DensityState::spec_scan(std::size_t lo, std::size_t hi) {
  // One prefix-sum pass over the window: the running sum is boundary b's
  // crossing delta, and the pass zeroes window_diff_ behind it.
  int delta = 0;
  int window_max = 0;
  long long span_delta = 0;
  std::size_t count = 0;
  for (std::size_t b = lo; b < hi; ++b) {
    delta += window_diff_[b];
    window_diff_[b] = 0;
    const int old_cut = cuts_[b];
    const int changed = delta != 0 ? 1 : 0;
    removed_at_[static_cast<std::size_t>(old_cut)] += changed;
    window_max = std::max(window_max, old_cut + delta);
    span_delta += delta;
    spec_boundaries_[count] = b;
    spec_deltas_[count] = delta;
    count += static_cast<std::size_t>(changed);
  }
  window_diff_[hi] = 0;
  spec_boundary_count_ = count;
  spec_total_span_ = total_span_ + span_delta;

  // Candidate density.  Unchanged boundaries keep their cut, so the
  // candidate is the max of (a) the new cuts inside the window and (b) the
  // largest committed cut value that still has at least one unchanged
  // boundary.  removed_at_[v] counts changed boundaries whose
  // committed cut is v, so cut_histogram_[v] - removed_at_[v] is the count
  // of unchanged boundaries at v; we scan down from the committed density
  // until that is nonzero.
  const int cur = density();
  if (window_max >= cur) {
    spec_density_ = window_max;
    return;
  }
  int v = cur;
  while (v > window_max &&
         cut_histogram_[static_cast<std::size_t>(v)] -
                 removed_at_[static_cast<std::size_t>(v)] ==
             0) {
    --v;
  }
  spec_density_ = v;  // v >= window_max on exit
}

// mcopt: hot
void DensityState::speculate_swap(std::size_t p, std::size_t q) {
  MCOPT_DCHECK(p < arrangement_.size() && q < arrangement_.size(),
               "swap position out of range");
  MCOPT_DCHECK(p != q, "speculate_swap requires distinct positions");
  MCOPT_DCHECK(!speculating(), "speculation already pending");
  spec_kind_ = SpecKind::kSwap;
  spec_a_ = p;
  spec_b_ = q;
  const std::size_t lo = std::min(p, q);
  const std::size_t hi = std::max(p, q);
  const CellId x = arrangement_.cell_at(lo);  // moves right
  const CellId y = arrangement_.cell_at(hi);  // moves left
  // Two-pin nets: the -1 per net of x and +1 per net of y fold into
  // window_diff_[lo], where a net joining x and y cancels itself; its +w
  // write from x's side lands at hi, past the window.
  int shift = pair_degree_[y] - pair_degree_[x];
  for (const Neighbour& nb : neighbours(x)) {
    window_diff_[std::clamp(arrangement_.position_of(nb.cell), lo, hi)] +=
        nb.weight;
  }
  for (const Neighbour& nb : neighbours(y)) {
    window_diff_[std::clamp(arrangement_.position_of(nb.cell), lo, hi)] -=
        nb.cell == x ? 0 : nb.weight;
  }
  // Wide nets.  A net with pins on both cells keeps its position
  // multiset, so its extrema and crossings cannot change.  Marks: 1 = on
  // the cell at hi, 2 = on both.
  const auto leftward = wide_nets_of(y);
  for (const std::uint32_t w : leftward) touched_mark_[w] = 1;
  for (const std::uint32_t w : wide_nets_of(x)) {
    if (touched_mark_[w]) {
      touched_mark_[w] = 2;
      continue;
    }
    spec_swap_pin(w, lo, hi);
    --shift;
  }
  for (const std::uint32_t w : leftward) {
    const char mark = touched_mark_[w];
    touched_mark_[w] = 0;
    if (mark == 2) continue;
    spec_swap_pin(w, hi, lo);
    ++shift;
  }
  window_diff_[lo] += shift;
  spec_scan(lo, hi);
}

// mcopt: hot
void DensityState::speculate_move(std::size_t from, std::size_t to) {
  MCOPT_DCHECK(from < arrangement_.size() && to < arrangement_.size(),
               "move position out of range");
  MCOPT_DCHECK(from != to, "speculate_move requires distinct positions");
  MCOPT_DCHECK(!speculating(), "speculation already pending");
  spec_kind_ = SpecKind::kMove;
  spec_a_ = from;
  spec_b_ = to;
  const std::size_t w_lo = std::min(from, to);
  const std::size_t w_hi = std::max(from, to);
  // Candidate position of the cell now at `pos`: the moving cell lands
  // on `to`, the rest of the window shifts one step back toward `from`.
  const std::size_t width = w_hi - w_lo;
  const std::size_t back = from < to ? std::size_t{0} - 1 : 1;
  const auto shifted = [=](std::size_t pos) {
    if (pos == from) return to;
    return pos - w_lo <= width ? pos + back : pos;
  };
  // A net crossing [lo, hi) is +1 at lo and -1 at hi in difference form,
  // so each net writes its old extent negated and its new one.
  touched_.clear();
  for (std::size_t pos = w_lo; pos <= w_hi; ++pos) {
    const CellId c = arrangement_.cell_at(pos);
    const std::size_t new_pos = shifted(pos);
    // Two-pin nets, each taken from its lower pin in the window.  A pin
    // outside the window does not move: clamped to the window's end, its
    // old and new writes land on the same entry and cancel.
    for (const Neighbour& nb : neighbours(c)) {
      const std::size_t at = arrangement_.position_of(nb.cell);
      const bool inside = at >= w_lo && at <= w_hi;
      if (inside && at < pos) continue;
      const std::size_t old_z = std::clamp(at, w_lo, w_hi);
      const std::size_t new_z = inside ? shifted(at) : old_z;
      const int m = nb.weight / 2;
      window_diff_[std::min(pos, old_z)] -= m;
      window_diff_[std::max(pos, old_z)] += m;
      window_diff_[std::min(new_pos, new_z)] += m;
      window_diff_[std::max(new_pos, new_z)] -= m;
    }
    for (const std::uint32_t w : wide_nets_of(c)) {
      if (!touched_mark_[w]) {
        touched_mark_[w] = 1;
        touched_.push_back(w);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  // Wide nets walk their pins.  An extremum that changes was, and stays,
  // inside [w_lo, w_hi] (pins outside the window do not move), so every
  // write lands there.
  for (const std::uint32_t w : touched_) {
    touched_mark_[w] = 0;
    std::size_t new_lo = arrangement_.size();
    std::size_t new_hi = 0;
    for (const CellId cell : netlist_->pins(wide_net_[w])) {
      const std::size_t npos = shifted(arrangement_.position_of(cell));
      new_lo = std::min(new_lo, npos);
      new_hi = std::max(new_hi, npos);
    }
    const std::size_t old_lo = net_lo_[w];
    const std::size_t old_hi = net_hi_[w];
    if (new_lo != old_lo) {
      --window_diff_[old_lo];
      ++window_diff_[new_lo];
    }
    if (new_hi != old_hi) {
      ++window_diff_[old_hi];
      --window_diff_[new_hi];
    }
    spec_journal(w, new_lo, new_hi);
  }
  spec_scan(w_lo, w_hi);
}

// mcopt: hot
void DensityState::commit_speculation() {
  MCOPT_DCHECK(speculating(), "commit without a pending speculation");
  for (std::size_t i = 0; i < spec_boundary_count_; ++i) {
    const std::size_t b = spec_boundaries_[i];
    const int old_cut = cuts_[b];
    const int new_cut = old_cut + spec_deltas_[i];
    removed_at_[static_cast<std::size_t>(old_cut)] = 0;
    cuts_[b] = new_cut;
    // One histogram update per changed boundary — bump_boundary would pay
    // one per crossing *unit*.
    --cut_histogram_[static_cast<std::size_t>(old_cut)];
    ++cut_histogram_[static_cast<std::size_t>(new_cut)];
  }
  spec_boundary_count_ = 0;
  for (std::size_t i = 0; i < spec_net_count_; ++i) {
    const std::uint32_t w = spec_nets_[i];
    net_lo_[w] = spec_new_lo_[i];
    net_hi_[w] = spec_new_hi_[i];
  }
  spec_net_count_ = 0;
  rearrange(spec_kind_, spec_a_, spec_b_);
  max_cut_ = spec_density_;  // exact, not just an upper bound
  total_span_ = spec_total_span_;
  spec_kind_ = SpecKind::kNone;
}

// mcopt: hot
void DensityState::discard_speculation() {
  MCOPT_DCHECK(speculating(), "discard without a pending speculation");
  for (std::size_t i = 0; i < spec_boundary_count_; ++i) {
    removed_at_[static_cast<std::size_t>(cuts_[spec_boundaries_[i]])] = 0;
  }
  spec_boundary_count_ = 0;
  spec_net_count_ = 0;
  spec_kind_ = SpecKind::kNone;
}

void DensityState::reset(Arrangement arrangement) {
  if (arrangement.size() != netlist_->num_cells()) {
    throw std::invalid_argument(
        "DensityState::reset: arrangement size != netlist cell count");
  }
  arrangement_ = std::move(arrangement);
  rebuild();
}

bool DensityState::verify() const {
  if (speculating()) return false;
  if (!arrangement_.is_consistent()) return false;
  // Per-move scratch is all zero between moves: a difference, mark or
  // removal count left behind would corrupt the next speculation.
  const auto all_zero = [](const auto& v) {
    return std::all_of(v.begin(), v.end(), [](auto x) { return x == 0; });
  };
  if (!all_zero(window_diff_) || !all_zero(removed_at_) ||
      !all_zero(touched_mark_)) {
    return false;
  }
  const std::vector<int> counts = crossing_counts(*netlist_, arrangement_);
  if (counts != cuts_) return false;
  std::vector<int> histogram(cut_histogram_.size(), 0);
  for (const int cut : counts) ++histogram[static_cast<std::size_t>(cut)];
  if (histogram != cut_histogram_) return false;
  const int recount_density =
      counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
  if (density() != recount_density) return false;
  if (std::accumulate(counts.begin(), counts.end(), 0LL) != total_span_) {
    return false;
  }
  for (std::size_t w = 0; w < wide_net_.size(); ++w) {
    if (extent(wide_net_[w]) != std::pair{net_lo_[w], net_hi_[w]}) {
      return false;
    }
  }
  return true;
}

std::vector<int> crossing_counts(const Netlist& netlist,
                                 const Arrangement& arrangement) {
  if (arrangement.size() != netlist.num_cells()) {
    throw std::invalid_argument(
        "crossing_counts: arrangement size != netlist cell count");
  }
  // Difference array over boundaries 0..n-1: a net spanning [lo, hi] is
  // +1 at lo and -1 at hi.  Entry n-1 only ever collects a -1 and is
  // dropped after the prefix sum.
  const std::size_t n = arrangement.size();
  std::vector<int> counts(n, 0);
  for (NetId net = 0; net < netlist.num_nets(); ++net) {
    std::size_t lo = n;
    std::size_t hi = 0;
    for (const CellId cell : netlist.pins(net)) {
      const std::size_t pos = arrangement.position_of(cell);
      lo = std::min(lo, pos);
      hi = std::max(hi, pos);
    }
    ++counts[lo];
    --counts[hi];
  }
  std::partial_sum(counts.begin(), counts.end(), counts.begin());
  counts.pop_back();
  return counts;
}

int density_of(const Netlist& netlist, const Arrangement& arrangement) {
  const std::vector<int> counts = crossing_counts(netlist, arrangement);
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

}  // namespace mcopt::linarr

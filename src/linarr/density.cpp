#include "linarr/density.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::linarr {

DensityState::DensityState(const Netlist& netlist, Arrangement arrangement)
    : netlist_(&netlist), arrangement_(std::move(arrangement)) {
  if (arrangement_.size() != netlist.num_cells()) {
    throw std::invalid_argument(
        "DensityState: arrangement size != netlist cell count");
  }
  net_lo_.resize(netlist.num_nets());
  net_hi_.resize(netlist.num_nets());
  rebuild();
  reserve_scratch();
}

DensityState::DensityState(const DensityState& other)
    : netlist_(other.netlist_),
      arrangement_(other.arrangement_),
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
  if (this == &other) return *this;
  MCOPT_DCHECK(!other.speculating(), "copying a speculating DensityState");
  if (speculating()) discard_speculation();
  netlist_ = other.netlist_;
  arrangement_ = other.arrangement_;
  net_lo_ = other.net_lo_;
  net_hi_ = other.net_hi_;
  cuts_ = other.cuts_;
  cut_histogram_ = other.cut_histogram_;
  max_cut_ = other.max_cut_;
  total_span_ = other.total_span_;
  reserve_scratch();
  return *this;
}

void DensityState::reserve_scratch() {
  // A move touches at most every net and every boundary, so one
  // reservation up front keeps every per-move scratch buffer
  // allocation-free for the life of the state (including clones — vector
  // copies shrink capacity to size, which is zero for empty scratch).
  const std::size_t nets = netlist_->num_nets();
  const std::size_t boundaries = cuts_.size();
  touched_.reserve(nets);
  touched_mark_.assign(nets, 0);
  spec_net_count_ = 0;
  spec_nets_.assign(nets, 0);
  spec_new_lo_.assign(nets, 0);
  spec_new_hi_.assign(nets, 0);
  spec_boundary_count_ = 0;
  spec_boundaries_.assign(boundaries, 0);
  spec_deltas_.assign(boundaries, 0);
  window_diff_.assign(arrangement_.size(), 0);
  removed_at_.assign(cut_histogram_.size(), 0);
}

bool DensityState::scratch_reserved() const noexcept {
  const std::size_t nets = netlist_->num_nets();
  const std::size_t boundaries = cuts_.size();
  return touched_.capacity() >= nets && touched_mark_.size() == nets &&
         spec_nets_.size() == nets && spec_new_lo_.size() == nets &&
         spec_new_hi_.size() == nets &&
         spec_boundaries_.size() == boundaries &&
         spec_deltas_.size() == boundaries &&
         window_diff_.size() == arrangement_.size() &&
         removed_at_.size() == cut_histogram_.size();
}

void DensityState::rebuild() {
  const std::size_t n = arrangement_.size();
  cuts_.assign(n > 0 ? n - 1 : 0, 0);
  cut_histogram_.assign(netlist_->num_nets() + 2, 0);
  if (!cuts_.empty()) {
    cut_histogram_[0] = static_cast<int>(cuts_.size());
  }
  max_cut_ = 0;
  total_span_ = 0;
  for (NetId net = 0; net < netlist_->num_nets(); ++net) {
    activate_net(net);
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
void DensityState::retire_net(NetId n) {
  add_span(net_lo_[n], net_hi_[n], -1);
}

// mcopt: hot
void DensityState::activate_net(NetId n) {
  std::size_t lo = arrangement_.size();
  std::size_t hi = 0;
  for (const auto cell : netlist_->pins(n)) {
    const std::size_t pos = arrangement_.position_of(cell);
    lo = std::min(lo, pos);
    hi = std::max(hi, pos);
  }
  net_lo_[n] = lo;
  net_hi_[n] = hi;
  add_span(lo, hi, +1);
}

// mcopt: hot
void DensityState::apply_swap(std::size_t p, std::size_t q) {
  MCOPT_DCHECK(p < arrangement_.size() && q < arrangement_.size(),
               "swap position out of range");
  if (p == q) return;
  touched_.clear();
  for (const std::size_t pos : {p, q}) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      if (!touched_mark_[net]) {
        touched_mark_[net] = 1;
        touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  for (const NetId net : touched_) retire_net(net);
  arrangement_.swap_positions(p, q);
  for (const NetId net : touched_) {
    activate_net(net);
    touched_mark_[net] = 0;
  }
}

// mcopt: hot
void DensityState::apply_move(std::size_t from, std::size_t to) {
  MCOPT_DCHECK(from < arrangement_.size() && to < arrangement_.size(),
               "move position out of range");
  if (from == to) return;
  touched_.clear();
  const auto lo = std::min(from, to);
  const auto hi = std::max(from, to);
  for (std::size_t pos = lo; pos <= hi; ++pos) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      if (!touched_mark_[net]) {
        touched_mark_[net] = 1;
        touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  for (const NetId net : touched_) retire_net(net);
  arrangement_.move_position(from, to);
  for (const NetId net : touched_) {
    activate_net(net);
    touched_mark_[net] = 0;
  }
}

// mcopt: hot
void DensityState::spec_journal(NetId n, std::size_t new_lo,
                                std::size_t new_hi) {
  // A move visits each net at most once, so the count stays below
  // num_nets() at every write.
  spec_nets_[spec_net_count_] = n;
  spec_new_lo_[spec_net_count_] = new_lo;
  spec_new_hi_[spec_net_count_] = new_hi;
  spec_net_count_ += static_cast<std::size_t>(new_lo != net_lo_[n] ||
                                              new_hi != net_hi_[n]);
}

// mcopt: hot
void DensityState::spec_swap_pin(NetId n, std::size_t from, std::size_t to) {
  // L/H are the lowest/highest positions of the net's *other* pins.  The
  // cached extrema give them unless the moving pin is one of the extrema.
  // A pin at the net's leading end (the end it moves toward: the high end
  // for a rightward pin) has the missing value behind `from`, where any
  // stand-in clamps alike, so the opposite extremum serves; for a two-pin
  // net the opposite extremum *is* the other pin.  Only a pin at the
  // trailing end of a net of three or more pins walks the net.
  const std::size_t old_lo = net_lo_[n];
  const std::size_t old_hi = net_hi_[n];
  std::size_t other_lo = old_lo;
  std::size_t other_hi = old_hi;
  const bool rightward = from < to;
  const bool trailing = rightward ? from == old_lo : from == old_hi;
  if (trailing && netlist_->pins(n).size() > 2) {
    other_lo = arrangement_.size();
    other_hi = 0;
    for (const CellId cell : netlist_->pins(n)) {
      const std::size_t pos = arrangement_.position_of(cell);
      if (pos == from) continue;
      other_lo = std::min(other_lo, pos);
      other_hi = std::max(other_hi, pos);
    }
  } else {
    if (from == old_lo) other_lo = old_hi;
    if (from == old_hi) other_hi = old_lo;
  }
  spec_journal(n, std::min(other_lo, to), std::max(other_hi, to));
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
  const auto rightward = netlist_->nets_of(arrangement_.cell_at(lo));
  const auto leftward = netlist_->nets_of(arrangement_.cell_at(hi));
  // A net with pins on both cells keeps its position multiset, so its
  // extrema and crossings cannot change.  Marks: 1 = on the cell at hi,
  // 2 = on both.
  for (const NetId net : leftward) touched_mark_[net] = 1;
  int shift = 0;
  for (const NetId net : rightward) {
    if (touched_mark_[net]) {
      touched_mark_[net] = 2;
      continue;
    }
    spec_swap_pin(net, lo, hi);
    --shift;
  }
  for (const NetId net : leftward) {
    const char mark = touched_mark_[net];
    touched_mark_[net] = 0;
    if (mark == 2) continue;
    spec_swap_pin(net, hi, lo);
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
  touched_.clear();
  const std::size_t w_lo = std::min(from, to);
  const std::size_t w_hi = std::max(from, to);
  for (std::size_t pos = w_lo; pos <= w_hi; ++pos) {
    for (const NetId net : netlist_->nets_of(arrangement_.cell_at(pos))) {
      if (!touched_mark_[net]) {
        touched_mark_[net] = 1;
        touched_.push_back(net);  // mcopt-lint: allow(hot-loop-alloc)
      }
    }
  }
  for (const NetId net : touched_) {
    touched_mark_[net] = 0;
    std::size_t new_lo = arrangement_.size();
    std::size_t new_hi = 0;
    for (const CellId cell : netlist_->pins(net)) {
      const std::size_t pos = arrangement_.position_of(cell);
      std::size_t npos;
      if (pos == from) {
        npos = to;
      } else if (from < to) {
        npos = (pos > from && pos <= to) ? pos - 1 : pos;
      } else {
        npos = (pos >= to && pos < from) ? pos + 1 : pos;
      }
      new_lo = std::min(new_lo, npos);
      new_hi = std::max(new_hi, npos);
    }
    // A net crossing [lo, hi) is +1 at lo and -1 at hi in difference
    // form.  An extremum that changes was, and stays, inside [w_lo, w_hi]
    // (pins outside the window do not move), so every write lands there.
    const std::size_t old_lo = net_lo_[net];
    const std::size_t old_hi = net_hi_[net];
    if (new_lo != old_lo) {
      --window_diff_[old_lo];
      ++window_diff_[new_lo];
    }
    if (new_hi != old_hi) {
      ++window_diff_[old_hi];
      --window_diff_[new_hi];
    }
    spec_journal(net, new_lo, new_hi);
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
    const NetId n = spec_nets_[i];
    net_lo_[n] = spec_new_lo_[i];
    net_hi_[n] = spec_new_hi_[i];
  }
  spec_net_count_ = 0;
  if (spec_kind_ == SpecKind::kSwap) {
    arrangement_.swap_positions(spec_a_, spec_b_);
  } else {
    arrangement_.move_position(spec_a_, spec_b_);
  }
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
  DensityState fresh{*netlist_, arrangement_};
  if (fresh.density() != density()) return false;
  if (fresh.total_span_ != total_span_) return false;
  return fresh.cuts_ == cuts_ && fresh.net_lo_ == net_lo_ &&
         fresh.net_hi_ == net_hi_;
}

int density_of(const Netlist& netlist, const Arrangement& arrangement) {
  return DensityState{netlist, arrangement}.density();
}

}  // namespace mcopt::linarr

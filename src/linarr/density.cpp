#include "linarr/density.hpp"

#if !defined(__SSE4_2__) || !defined(__POPCNT__)
#error "the lane pass and the column kernel need x86-64-v2 (SSE4.2, POPCNT)"
#endif
#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::linarr {
namespace {

// mcopt: hot
bool has_bit(const std::uint64_t* bits, std::size_t pos) {
  return ((bits[pos / 64] >> (pos % 64)) & 1U) != 0;
}

// mcopt: hot
inline std::pair<std::size_t, std::size_t> other_extrema(
    const std::uint64_t* bits, std::size_t words, std::size_t skip) {
  // [lowest, highest] set bit of a wide net's position bits but `skip`.
  // A wide net has at least two pins besides that one, so both scans
  // stop on a set word without a bound check.
  const std::size_t skip_word = skip / 64;
  const std::uint64_t keep = ~(std::uint64_t{1} << (skip % 64));
  const auto masked = [&](std::size_t i) {
    return i == skip_word ? bits[i] & keep : bits[i];
  };
  std::size_t i = 0;
  while (masked(i) == 0) ++i;
  std::size_t j = words - 1;
  while (masked(j) == 0) --j;
  return {i * 64 + static_cast<std::size_t>(std::countr_zero(masked(i))),
          j * 64 + 63 - static_cast<std::size_t>(std::countl_zero(masked(j)))};
}

// The selection rule's prices (density.hpp): one word of the column
// kernel's window against one wide-net incidence of the per-net kernel,
// in relative units fitted to both kernels' measured costs
// (EXPERIMENTS.md).
constexpr std::size_t kColumnWordCost = 1;
constexpr std::size_t kIncidenceCost = 2;

// The lane pass's bound (density.hpp): every cut and every lane index
// fits an int16 lane.
constexpr std::size_t kMaxLaneValue = 32767;

// The two-pin rule's constant (density.hpp): the weight rows iff
// n^2 <= kMatrixCellsPerPair x (entries of the neighbour lists).
constexpr std::size_t kMatrixCellsPerPair = 6;

// int16 lanes per SSE2 vector: the rows, the cuts and window_diff_ are
// padded to a multiple of it.
constexpr std::size_t kLanes = 8;

// mcopt: hot
template <typename T>
inline __m128i load16(const T* at) {  // 16 bytes, unaligned
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// mcopt: hot
template <typename T>
inline void store16(T* at, __m128i v) {  // 16 bytes, unaligned
  _mm_storeu_si128(reinterpret_cast<__m128i*>(at), v);
}

// mcopt: hot
inline __m128i low_halves(__m128i a, __m128i b) {
  // The eight ints' low 16 bits, as int16 lanes: sign-extending the low
  // half first keeps packs_epi32 from saturating, so the lanes are the
  // ints modulo 2^16.
  return _mm_packs_epi32(_mm_srai_epi32(_mm_slli_epi32(a, 16), 16),
                         _mm_srai_epi32(_mm_slli_epi32(b, 16), 16));
}

}  // namespace

DensityState::DensityState(const Netlist& netlist, Arrangement arrangement)
    : netlist_(&netlist), arrangement_(std::move(arrangement)) {
  if (arrangement_.size() != netlist.num_cells()) {
    throw std::invalid_argument(
        "DensityState: arrangement size != netlist cell count");
  }
  index_ = &netlist.net_index();
  choose_paths();
  rebuild();
  reserve_scratch();
}

void DensityState::choose_paths() {
  const std::size_t cells = netlist_->num_cells();
  const std::size_t wide = index_->wide_net.size();
  // The lane bound, then the two-pin rule (density.hpp): n x lanes rows
  // against the neighbour lists' entries.  rebuild() fills the rows from
  // the arrangement.
  uses_lanes_ =
      netlist_->num_nets() <= kMaxLaneValue && cells <= kMaxLaneValue;
  uses_matrix_ = uses_lanes_ && !index_->pairs.empty() &&
                 cells * cells <= kMatrixCellsPerPair * index_->pairs.size();
  lanes_ = (cells + kLanes - 1) / kLanes * kLanes;
  if (uses_matrix_) rows_.assign(cells * lanes_, 0);
  // The kernel rule (density.hpp): expected window x words against the
  // two cells' expected wide incidences, both scaled by 3n.  Each instance
  // stores the wide nets in its kernel's form only.
  const std::size_t net_words = (wide + 63) / 64;
  uses_columns_ = net_words > 0 &&
                  kColumnWordCost * (cells + 1) * net_words * cells <=
                      kIncidenceCost * 6 * index_->cell_wide.size();
  if (uses_columns_) {
    net_words_ = net_words;
    col_.assign(cells * net_words_, 0);
    pre_.assign((cells + 1) * net_words_, 0);
    suf_.assign((cells + 1) * net_words_, 0);
    wide_cut_.assign(cells - 1, 0);
  } else {
    words_ = (cells + 63) / 64;
    bits_.assign(wide * words_, 0);
  }
}

void DensityState::reserve_scratch() {
  // A move touches at most every wide net and every boundary, so one
  // reservation up front, at its full size, keeps every per-move scratch
  // buffer allocation-free for the life of the state and of its copies.
  // The journal and the marks serve the per-net kernel only.
  const std::size_t wide = uses_columns_ ? 0 : index_->wide_net.size();
  touched_mark_.assign(wide, 0);
  spec_net_count_ = 0;
  spec_nets_.assign(wide + 1, 0);  // a full journal takes one more write
  window_diff_.assign(lanes_, 0);
  spec_lane_delta_.assign(uses_lanes_ ? lanes_ : 0, 0);
  spec_deltas_.assign(uses_lanes_ ? 0 : lanes_, 0);
  spec_pre_.assign(pre_.size(), 0);
  spec_suf_.assign(suf_.size(), 0);
  spec_wide_cut_.assign(wide_cut_.size(), 0);
}

bool DensityState::scratch_reserved() const noexcept {
  const std::size_t wide = uses_columns_ ? 0 : index_->wide_net.size();
  return touched_mark_.size() == wide && spec_nets_.size() == wide + 1 &&
         window_diff_.size() == lanes_ &&
         spec_lane_delta_.size() == (uses_lanes_ ? lanes_ : 0) &&
         spec_deltas_.size() == (uses_lanes_ ? 0 : lanes_) &&
         spec_pre_.size() == pre_.size() && spec_suf_.size() == suf_.size() &&
         spec_wide_cut_.size() == wide_cut_.size();
}

// mcopt: hot
void DensityState::pin_bits(NetId n, std::uint64_t* out) const {
  const auto pins = netlist_->pins(n);
  if (words_ == 1) {
    // n <= 64, the paper's instances: the word is ORed up in a register
    // and stored once.  ORing every pin through out[0] would make each
    // pin's load wait on the previous pin's store.
    std::uint64_t bits = 0;
    for (const CellId cell : pins) {
      bits |= std::uint64_t{1} << arrangement_.position_of(cell);
    }
    out[0] = bits;
    return;
  }
  // With several words the pins scatter over them, so their stores
  // rarely chain, and a register per run of pins in one word would
  // mispredict its branch instead (EXPERIMENTS.md).
  std::fill_n(out, words_, std::uint64_t{0});
  for (const CellId cell : pins) {
    const std::size_t pos = arrangement_.position_of(cell);
    out[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }
}

void DensityState::refresh_rows() {
  // Row x, lane q: the weight between x and the cell at position q.
  std::fill(rows_.begin(), rows_.end(), std::int16_t{0});
  for (CellId x = 0; x < arrangement_.size(); ++x) {
    std::int16_t* row = rows_.data() + std::size_t{x} * lanes_;
    for (const auto& nb : index_->neighbours(x)) {
      row[arrangement_.position_of(nb.cell)] =
          static_cast<std::int16_t>(nb.weight);
    }
  }
}

void DensityState::rebuild() {
  // Every net's extent into a difference array over the boundaries, then
  // one prefix-sum pass.  Entry n-1, which only ever collects a -1, and
  // the padding lanes past it hold 0.
  const std::size_t n = arrangement_.size();
  cuts_.assign(lanes_, 0);
  for (NetId net = 0; net < netlist_->num_nets(); ++net) {
    const auto [lo, hi] = net_extent(*netlist_, arrangement_, net);
    ++cuts_[lo];
    --cuts_[hi];
  }
  cuts_[n - 1] = 0;
  if (uses_columns_) {
    refresh_columns(0, n - 1);
  } else {
    for (std::uint32_t w = 0; w < index_->wide_net.size(); ++w) {
      pin_bits(index_->wide_net[w], bits_.data() + w * words_);
    }
  }
  if (uses_matrix_) refresh_rows();
  int cut = 0;
  total_span_ = 0;
  max_cut_ = 0;
  for (std::size_t b = 0; b + 1 < n; ++b) {
    cut += cuts_[b];
    cuts_[b] = cut;
    total_span_ += cut;
    max_cut_ = std::max(max_cut_, cut);
  }
}

// mcopt: hot
void DensityState::add_span(std::size_t lo, std::size_t hi, int delta) {
  for (std::size_t b = lo; b < hi; ++b) cuts_[b] += delta;
  total_span_ += static_cast<long long>(hi - lo) * delta;
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
      const auto [net_lo, net_hi] = net_extent(*netlist_, arrangement_, net);
      add_span(net_lo, net_hi, delta);
    }
  }
}

// mcopt: hot
void DensityState::refresh_columns(std::size_t lo, std::size_t hi) {
  // Re-derives col_ rows lo..hi from the cells now there, then the pre_
  // and suf_ rows and wide counts that depend on them; the rest stands,
  // since a move permutes the cells of [lo, hi] among those positions.
  const std::size_t m = net_words_;
  for (std::size_t p = lo; p <= hi; ++p) {
    std::uint64_t* row = col_.data() + p * m;
    std::fill_n(row, m, std::uint64_t{0});
    for (const std::uint32_t w :
         index_->wide_nets_of(arrangement_.cell_at(p))) {
      row[w / 64] |= std::uint64_t{1} << (w % 64);
    }
  }
  for (std::size_t k = lo + 1; k <= hi + 1; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      pre_[k * m + i] = pre_[(k - 1) * m + i] | col_[(k - 1) * m + i];
    }
  }
  for (std::size_t k = hi + 1; k-- > lo;) {
    for (std::size_t i = 0; i < m; ++i) {
      suf_[k * m + i] = suf_[(k + 1) * m + i] | col_[k * m + i];
    }
  }
  for (std::size_t b = lo; b < hi; ++b) {
    int count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      count += std::popcount(pre_[(b + 1) * m + i] & suf_[(b + 1) * m + i]);
    }
    wide_cut_[b] = count;
  }
}

// mcopt: hot
void DensityState::rearrange(SpecKind kind, std::size_t a, std::size_t b) {
  // The rows' lanes follow the cells: a swap trades two lanes of every
  // row, a single exchange rotates the window's lanes.
  std::int16_t* const first = rows_.data();
  std::int16_t* const last = first + rows_.size();
  if (kind == SpecKind::kSwap) {
    arrangement_.swap_positions(a, b);
    for (std::int16_t* row = first; row != last; row += lanes_) {
      std::swap(row[a], row[b]);
    }
  } else {
    arrangement_.move_position(a, b);
    // [lo, hi] turns one lane left when the cell at a moves right, one
    // right when it moves left.
    const std::size_t lo = std::min(a, b);
    const std::size_t hi = std::max(a, b);
    const std::size_t mid = a < b ? lo + 1 : hi;
    for (std::int16_t* row = first; row != last; row += lanes_) {
      std::rotate(row + lo, row + mid, row + hi + 1);
    }
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
  if (uses_columns_) {
    refresh_columns(lo, hi);
  } else {
    for (std::size_t pos = lo; pos <= hi; ++pos) {
      for (const std::uint32_t w :
           index_->wide_nets_of(arrangement_.cell_at(pos))) {
        pin_bits(index_->wide_net[w], bits_.data() + w * words_);
      }
    }
  }
  max_cut_ = *std::max_element(cuts_.begin(), cuts_.end());
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
int DensityState::spec_swap_wide(CellId x, CellId y, std::size_t lo,
                                 std::size_t hi) {
  // Cell x at lo moves right, cell y at hi left.  L/H are the extrema of
  // a net's other pins.  A net whose bit at the other cell's position is
  // set is on both cells: it adds 0 and its journal slot is not kept.
  // Returns its share of the shift the pass adds on every window
  // boundary: -1 per kept net of x, +1 per kept net of y.
  std::size_t count = 0;
  const auto visit = [&](CellId c, std::size_t from, std::size_t to,
                         int sign) {
    for (const std::uint32_t w : index_->wide_nets_of(c)) {
      const std::uint64_t* bits = bits_.data() + w * words_;
      const bool moves = !has_bit(bits, to);
      const auto [other_lo, other_hi] = other_extrema(bits, words_, from);
      // On boundary b in [lo, hi) a rightward pin changes the net's count
      // by [L <= b] - [b < H] = [L <= b] + [H <= b] - 1, a leftward one by
      // the negation; clamped into [lo, hi], L and H stay in the window.
      const int d = moves ? sign : 0;
      window_diff_[std::clamp(other_lo, lo, hi)] += d;
      window_diff_[std::clamp(other_hi, lo, hi)] += d;
      spec_nets_[count] = w;
      count += static_cast<std::size_t>(moves);
    }
  };
  visit(x, lo, hi, 1);
  const std::size_t rightward = count;
  visit(y, hi, lo, -1);
  spec_net_count_ = count;
  return static_cast<int>(count - 2 * rightward);
}

// mcopt: hot
void DensityState::spec_columns(std::size_t lo, std::size_t hi,
                                std::size_t lo_from, std::size_t hi_from,
                                std::size_t shift) {
  // The candidate columns are col'[lo] = col[lo_from], col'[hi] =
  // col[hi_from] and col'[k] = col[k + shift] between them (shift 0 or
  // +-1, modulo 2^64); every column outside [lo, hi] stands, so pre' and
  // suf' differ from the committed sets only on the window's rows
  // lo+1..hi: one running OR from each end.  Each OR reads its next
  // column by index, so no pointer is formed past col_'s ends.
  const std::size_t m = net_words_;
  const std::uint64_t* col = col_.data();
  std::uint64_t* pre = spec_pre_.data();
  std::uint64_t* suf = spec_suf_.data();
  const std::uint64_t* left = pre_.data() + lo * m;
  std::size_t from = lo_from;  // col'[k - 1] = col[from]
  for (std::size_t k = lo + 1; k <= hi; ++k) {
    std::uint64_t* row = pre + k * m;
    const std::uint64_t* add = col + from * m;
    for (std::size_t i = 0; i < m; ++i) row[i] = left[i] | add[i];
    left = row;
    from = k + shift;
  }
  // Right to left, each boundary's candidate count |pre' & suf'| as soon
  // as its suf' row is known.  Its change d[b] goes into window_diff_ in
  // difference form, d[b] - d[b-1] at b, so the pass's prefix sum adds
  // d[b] at boundary b; the -d[hi-1] at hi is past the window.
  const std::uint64_t* right = suf_.data() + (hi + 1) * m;
  from = hi_from;  // col'[b + 1] = col[from]
  int next = 0;  // d[b+1]
  for (std::size_t b = hi; b-- > lo;) {
    std::uint64_t* row = suf + (b + 1) * m;
    const std::uint64_t* both = pre + (b + 1) * m;
    const std::uint64_t* add = col + from * m;
    int count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      row[i] = right[i] | add[i];
      count += std::popcount(both[i] & row[i]);
    }
    right = row;
    from = b + shift;
    spec_wide_cut_[b] = count;
    const int d = count - wide_cut_[b];
    window_diff_[b + 1] += next - d;
    next = d;
  }
  window_diff_[lo] += next;
}

// mcopt: hot
void DensityState::commit_swap_columns(std::size_t lo, std::size_t hi) {
  // The two columns trade, and the speculated window becomes the
  // committed one.
  const std::size_t m = net_words_;
  std::uint64_t* col_lo = col_.data() + lo * m;
  std::swap_ranges(col_lo, col_lo + m, col_.data() + hi * m);
  const std::size_t rows = (lo + 1) * m;
  std::copy_n(spec_pre_.data() + rows, (hi - lo) * m, pre_.data() + rows);
  std::copy_n(spec_suf_.data() + rows, (hi - lo) * m, suf_.data() + rows);
  std::copy_n(spec_wide_cut_.data() + lo, hi - lo, wide_cut_.data() + lo);
}

// mcopt: hot
void DensityState::spec_scalar(int shift, std::size_t lo, std::size_t hi) {
  // The lane pass's arithmetic in int, one boundary at a time, for the
  // instances past its int16 bounds: boundary b's delta is `shift` plus
  // the prefix sum of window_diff_ (zero below lo, zeroed as it is read)
  // inside the window and 0 outside it, and every cut is read.
  int best = 0;
  for (std::size_t b = 0; b < lo; ++b) best = std::max(best, cuts_[b]);
  for (std::size_t b = hi; b < lanes_; ++b) best = std::max(best, cuts_[b]);
  int delta = shift;
  long long span_delta = 0;
  for (std::size_t b = lo; b < hi; ++b) {
    delta += window_diff_[b];
    window_diff_[b] = 0;
    spec_deltas_[b] = delta;
    best = std::max(best, cuts_[b] + delta);
    span_delta += delta;
  }
  window_diff_[hi] = 0;
  spec_density_ = best;
  spec_total_span_ = total_span_ + span_delta;
}

// mcopt: hot
template <bool kRows, bool kDiff>
void DensityState::spec_lanes(const std::int16_t* row_x,
                              const std::int16_t* row_y, int shift,
                              std::size_t lo, std::size_t hi) {
  // One pass over every lane, eight at a time, with no branch on the
  // window: lane b's prefix sum of row_x - row_y (plus window_diff_,
  // zeroed as it is read) is boundary b's change less `shift`.  The
  // window's lanes add `shift` and keep it; every other lane's delta is
  // masked to 0, so its candidate cut is its committed one and whatever
  // its prefix wrapped to is never read.  All of it is int16 arithmetic
  // modulo 2^16, exact wherever the result is a true cut (density.hpp).
  const std::size_t lanes = lanes_;
  const int* cuts = cuts_.data();
  int* diff = window_diff_.data();
  std::int16_t* out = spec_lane_delta_.data();
  const __m128i after_lo = _mm_set1_epi16(static_cast<short>(lo - 1));
  const __m128i at_hi = _mm_set1_epi16(static_cast<short>(hi));
  const __m128i add = _mm_set1_epi16(static_cast<short>(shift));
  const __m128i ones = _mm_set1_epi16(1);
  const __m128i step = _mm_set1_epi16(static_cast<short>(kLanes));
  __m128i lane = _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7);
  __m128i carry = _mm_setzero_si128();  // every lane: the prefix so far
  __m128i best = _mm_setzero_si128();
  __m128i span = _mm_setzero_si128();
  for (std::size_t k = 0; k < lanes; k += kLanes) {
    __m128i d = _mm_setzero_si128();
    if constexpr (kRows) {
      d = _mm_sub_epi16(load16(row_x + k), load16(row_y + k));
    }
    if constexpr (kDiff) {
      d = _mm_add_epi16(d, low_halves(load16(diff + k),
                                      load16(diff + k + 4)));
      std::fill_n(diff + k, kLanes, 0);
    }
    // In-register prefix sum: three shift-adds, then the carry, whose
    // next value adds this vector's last lane off the critical path.
    d = _mm_add_epi16(d, _mm_slli_si128(d, 2));
    d = _mm_add_epi16(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi16(d, _mm_slli_si128(d, 8));
    const __m128i prefix = _mm_add_epi16(d, carry);
    carry = _mm_add_epi16(
        carry, _mm_shuffle_epi32(_mm_shufflehi_epi16(d, 0xFF), 0xFF));
    const __m128i in = _mm_and_si128(_mm_cmpgt_epi16(lane, after_lo),
                                     _mm_cmpgt_epi16(at_hi, lane));
    const __m128i delta = _mm_and_si128(_mm_add_epi16(prefix, add), in);
    store16(out + k, delta);
    const __m128i cut =
        _mm_packs_epi32(load16(cuts + k), load16(cuts + k + 4));
    best = _mm_max_epi16(best, _mm_add_epi16(cut, delta));
    span = _mm_add_epi32(span, _mm_madd_epi16(delta, ones));
    lane = _mm_add_epi16(lane, step);
  }
  best = _mm_max_epi16(best, _mm_shuffle_epi32(best, 0x4E));
  best = _mm_max_epi16(best, _mm_shuffle_epi32(best, 0xB1));
  best = _mm_max_epi16(best, _mm_srli_epi32(best, 16));
  span = _mm_add_epi32(span, _mm_shuffle_epi32(span, 0x4E));
  span = _mm_add_epi32(span, _mm_shuffle_epi32(span, 0xB1));
  spec_density_ = _mm_cvtsi128_si32(best) & 0xFFFF;
  spec_total_span_ = total_span_ + _mm_cvtsi128_si32(span);
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
  // Two-pin nets: -1 per net of x and +1 per net of y on every window
  // boundary, then their neighbours' weights by position (density.hpp).
  int shift = index_->pair_degree[y] - index_->pair_degree[x];
  // Wide nets, out of line; a swap of two cells on none makes no call
  // to the per-net kernel.
  if (uses_columns_) {
    spec_columns(lo, hi, hi, lo, 0);
  } else if (!index_->wide_nets_of(x).empty() ||
             !index_->wide_nets_of(y).empty()) {
    shift += spec_swap_wide(x, y, lo, hi);
  }
  if (uses_matrix_) {
    const std::int16_t* row_x = rows_.data() + std::size_t{x} * lanes_;
    const std::int16_t* row_y = rows_.data() + std::size_t{y} * lanes_;
    shift += row_x[hi];  // W[x][y]: the nets joining x and y
    // Without wide nets window_diff_ stays zero, and the pass skips it.
    if (index_->wide_net.empty()) {
      spec_lanes<true, false>(row_x, row_y, shift, lo, hi);
    } else {
      spec_lanes<true, true>(row_x, row_y, shift, lo, hi);
    }
    return;
  }
  // Without the rows, each neighbour's weight goes into window_diff_ at
  // its clamped position, and the pass adds the shift.  A net joining x
  // and y keeps its extent: the shift's -1 and +1 for it cancel, its +w
  // from x's side lands at hi, past the window, and y's is skipped.
  for (const auto& nb : index_->neighbours(x)) {
    window_diff_[std::clamp(arrangement_.position_of(nb.cell), lo, hi)] +=
        nb.weight;
  }
  for (const auto& nb : index_->neighbours(y)) {
    window_diff_[std::clamp(arrangement_.position_of(nb.cell), lo, hi)] -=
        nb.cell == x ? 0 : nb.weight;
  }
  if (uses_lanes_) {
    spec_lanes<false, true>(nullptr, nullptr, shift, lo, hi);
  } else {
    spec_scalar(shift, lo, hi);
  }
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
  // so each net writes its old extent negated and its new one.  In the
  // per-net kernel every wide net with a pin in the window is journaled
  // once, through the touched marks: its bits change even where its
  // extrema do not.  The kernel test is a local: the marks' char stores
  // may alias the member, which the loop would otherwise reload.
  const bool columns = uses_columns_;
  std::size_t count = 0;
  for (std::size_t pos = w_lo; pos <= w_hi; ++pos) {
    const CellId c = arrangement_.cell_at(pos);
    const std::size_t new_pos = shifted(pos);
    // Two-pin nets, each taken from its lower pin in the window.  A pin
    // outside the window does not move: clamped to the window's end, its
    // old and new writes land on the same entry and cancel.
    for (const auto& nb : index_->neighbours(c)) {
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
    if (columns) continue;
    for (const std::uint32_t w : index_->wide_nets_of(c)) {
      spec_nets_[count] = w;
      count += static_cast<std::size_t>(touched_mark_[w] == 0);
      touched_mark_[w] = 1;
    }
  }
  if (columns) {
    // The moving cell's column lands on `to`, the others shift one step
    // toward `from`: col'[k] = col[k - back], col'[to] = col[from].
    const std::size_t shift = std::size_t{0} - back;
    const std::size_t next = from + shift;  // col'[from]
    spec_columns(w_lo, w_hi, from < to ? next : from, from < to ? from : next,
                 shift);
  }
  spec_net_count_ = count;
  // Per-net kernel.  L/H, the extrema of the pins off `from`, come from
  // the bits; the shift keeps their order, so the new extrema are
  // shifted(L)/shifted(H), joined by `to` when the net holds the moving
  // cell.  An extremum that changes was, and stays, inside [w_lo, w_hi]
  // (pins outside the window do not move); one that does not change
  // writes -1 and +1 to the same entry.
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t w = spec_nets_[i];
    touched_mark_[w] = 0;
    const std::uint64_t* bits = bits_.data() + w * words_;
    const bool holds = has_bit(bits, from);
    const auto [other_lo, other_hi] = other_extrema(bits, words_, from);
    const std::size_t new_lo = shifted(other_lo);
    const std::size_t new_hi = shifted(other_hi);
    --window_diff_[holds ? std::min(other_lo, from) : other_lo];
    ++window_diff_[holds ? std::min(new_lo, to) : new_lo];
    ++window_diff_[holds ? std::max(other_hi, from) : other_hi];
    --window_diff_[holds ? std::max(new_hi, to) : new_hi];
  }
  if (uses_lanes_) {
    spec_lanes<false, true>(nullptr, nullptr, 0, w_lo, w_hi);
  } else {
    spec_scalar(0, w_lo, w_hi);
  }
}

// mcopt: hot
void DensityState::commit_speculation() {
  MCOPT_DCHECK(speculating(), "commit without a pending speculation");
  const std::size_t a = spec_a_;
  const std::size_t b = spec_b_;
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  // The lane pass left a delta in every lane, 0 outside the window, so
  // every lane's is added, eight at a time: the loop's length does not
  // depend on the window.
  if (uses_lanes_) {
    const std::int16_t* delta = spec_lane_delta_.data();
    int* cuts = cuts_.data();
    for (std::size_t k = 0; k < lanes_; k += kLanes) {
      const __m128i d = load16(delta + k);
      // Each int16 delta sign-extended to int32: its copy in the high half
      // shifted down arithmetically.
      const __m128i low = _mm_srai_epi32(_mm_unpacklo_epi16(d, d), 16);
      const __m128i high = _mm_srai_epi32(_mm_unpackhi_epi16(d, d), 16);
      store16(cuts + k, _mm_add_epi32(load16(cuts + k), low));
      store16(cuts + k + 4, _mm_add_epi32(load16(cuts + k + 4), high));
    }
  } else {
    for (std::size_t k = lo; k < hi; ++k) cuts_[k] += spec_deltas_[k];
  }
  rearrange(spec_kind_, a, b);
  // A swapped net is on exactly one of the two cells, so its bits at the
  // two positions trade places; a single exchange moves a whole window.
  for (std::size_t i = 0; i < spec_net_count_; ++i) {
    const std::uint32_t w = spec_nets_[i];
    std::uint64_t* bits = bits_.data() + w * words_;
    if (spec_kind_ == SpecKind::kSwap) {
      bits[a / 64] ^= std::uint64_t{1} << (a % 64);
      bits[b / 64] ^= std::uint64_t{1} << (b % 64);
    } else {
      pin_bits(index_->wide_net[w], bits);
    }
  }
  spec_net_count_ = 0;
  if (uses_columns_) {
    if (spec_kind_ == SpecKind::kSwap) {
      commit_swap_columns(lo, hi);
    } else {
      refresh_columns(lo, hi);
    }
  }
  max_cut_ = spec_density_;
  total_span_ = spec_total_span_;
  spec_kind_ = SpecKind::kNone;
}

// mcopt: hot
void DensityState::discard_speculation() {
  MCOPT_DCHECK(speculating(), "discard without a pending speculation");
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
  // Per-move scratch is all zero between moves: a difference or mark
  // left behind would corrupt the next speculation.
  const auto all_zero = [](const auto& v) {
    return std::all_of(v.begin(), v.end(), [](auto x) { return x == 0; });
  };
  if (!all_zero(window_diff_) || !all_zero(touched_mark_)) return false;
  const std::vector<int> counts = crossing_counts(*netlist_, arrangement_);
  std::vector<int> padded = counts;
  padded.resize(lanes_, 0);
  if (padded != cuts_) return false;
  const int recount_density =
      counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
  if (density() != recount_density) return false;
  if (std::accumulate(counts.begin(), counts.end(), 0LL) != total_span_) {
    return false;
  }
  return (!uses_matrix_ || verify_rows()) &&
         (uses_columns_ ? verify_columns() && bits_.empty() : verify_bits());
}

bool DensityState::verify_bits() const {
  std::vector<std::uint64_t> recount(words_);
  for (std::uint32_t w = 0; w < index_->wide_net.size(); ++w) {
    pin_bits(index_->wide_net[w], recount.data());
    if (!std::equal(recount.begin(), recount.end(),
                    bits_.data() + w * words_)) {
      return false;
    }
  }
  return true;
}

bool DensityState::verify_rows() const {
  // From the two-pin nets themselves through the arrangement, never the
  // neighbour lists; each weight modulo 2^16, as the lanes hold it.
  std::vector<std::int16_t> rows(rows_.size(), 0);
  const auto add = [&](CellId from, CellId to) {
    std::int16_t& lane =
        rows[std::size_t{from} * lanes_ + arrangement_.position_of(to)];
    lane = static_cast<std::int16_t>(lane + 2);
  };
  for (NetId net = 0; net < netlist_->num_nets(); ++net) {
    const auto pins = netlist_->pins(net);
    if (pins.size() != 2) continue;
    add(pins[0], pins[1]);
    add(pins[1], pins[0]);
  }
  return rows == rows_;
}

bool DensityState::verify_columns() const {
  // Columns from each wide net's pins, the prefix and suffix sets from
  // the columns, and the wide crossing counts from the nets' extents,
  // which never read a set.
  const std::size_t n = arrangement_.size();
  const std::size_t m = net_words_;
  std::vector<std::uint64_t> col(n * m, 0);
  std::vector<int> wide_cut(n, 0);
  for (std::uint32_t w = 0; w < index_->wide_net.size(); ++w) {
    for (const CellId cell : netlist_->pins(index_->wide_net[w])) {
      const std::size_t pos = arrangement_.position_of(cell);
      col[pos * m + w / 64] |= std::uint64_t{1} << (w % 64);
    }
    const auto [lo, hi] =
        net_extent(*netlist_, arrangement_, index_->wide_net[w]);
    ++wide_cut[lo];
    --wide_cut[hi];
  }
  std::partial_sum(wide_cut.begin(), wide_cut.end(), wide_cut.begin());
  wide_cut.pop_back();
  std::vector<std::uint64_t> pre((n + 1) * m, 0);
  std::vector<std::uint64_t> suf((n + 1) * m, 0);
  for (std::size_t k = 1; k <= n; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      pre[k * m + i] = pre[(k - 1) * m + i] | col[(k - 1) * m + i];
      suf[(n - k) * m + i] = suf[(n - k + 1) * m + i] | col[(n - k) * m + i];
    }
  }
  return col == col_ && pre == pre_ && suf == suf_ && wide_cut == wide_cut_;
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
    const auto [lo, hi] = net_extent(netlist, arrangement, net);
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

#include "partition/partition.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "util/invariant.hpp"

namespace mcopt::partition {

PartitionState::PartitionState(const Netlist& netlist,
                               std::vector<std::uint8_t> sides)
    : netlist_(&netlist), sides_(std::move(sides)) {
  if (sides_.size() != netlist.num_cells()) {
    throw std::invalid_argument("PartitionState: sides size != cell count");
  }
  for (const auto s : sides_) {
    if (s > 1) throw std::invalid_argument("PartitionState: side must be 0/1");
  }
  rebuild();
}

PartitionState PartitionState::random(const Netlist& netlist, util::Rng& rng) {
  const std::size_t n = netlist.num_cells();
  std::vector<std::uint8_t> sides(n, 1);
  std::vector<CellId> cells(n);
  for (std::size_t i = 0; i < n; ++i) cells[i] = static_cast<CellId>(i);
  rng.shuffle(cells);
  for (std::size_t i = 0; i < (n + 1) / 2; ++i) sides[cells[i]] = 0;
  return PartitionState{netlist, std::move(sides)};
}

void PartitionState::rebuild() {
  gain_.assign(sides_.size(), 0);
  wide_.clear();
  cut_ = 0;
  side0_count_ = 0;
  for (const auto s : sides_) side0_count_ += s == 0;
  // Wide nets are numbered in NetId order, as NetIndex numbers them.
  for (NetId n = 0; n < netlist_->num_nets(); ++n) {
    const auto pins = netlist_->pins(n);
    if (pins.size() == 2) {
      const int cut = sides_[pins[0]] ^ sides_[pins[1]];
      gain_[pins[0]] += 2 * cut - 1;
      gain_[pins[1]] += 2 * cut - 1;
      cut_ += cut;
      continue;
    }
    int zero = 0;
    for (const CellId c : pins) zero += sides_[c] == 0;
    const auto size = static_cast<int>(pins.size());
    wide_.push_back({zero, size});
    if (zero > 0 && zero < size) ++cut_;
  }
}

const netlist::NetIndex& PartitionState::index() {
  if (index_ == nullptr) [[unlikely]] {
    index_ = &netlist_->net_index();
  }
  return *index_;
}

bool PartitionState::is_balanced() const noexcept {
  const auto n = sides_.size();
  const auto s0 = side0_count_;
  const auto s1 = n - s0;
  return (s0 > s1 ? s0 - s1 : s1 - s0) <= 1;
}

// mcopt: hot
void PartitionState::move_neighbour_gains(const netlist::NetIndex& index,
                                          CellId c, std::uint8_t from) {
  for (const auto& nb : index.neighbours(c)) {
    // +weight for a neighbour on c's old side (their nets become cut),
    // -weight otherwise.  The sides are random, so a branch here would
    // mispredict about half the time: negate through the sign mask.
    const int other = -static_cast<int>(sides_[nb.cell] ^ from);  // 0 / -1
    gain_[nb.cell] += (nb.weight ^ other) - other;
  }
}

// mcopt: hot
int PartitionState::step_wide(const netlist::NetIndex& index, CellId c,
                              int step) {
  int delta = 0;
  for (const std::uint32_t w : index.wide_nets_of(c)) {
    WideCount& net = wide_[w];
    // Cut iff 0 < on_side0 < pins, as one unsigned compare.
    const auto span = static_cast<unsigned>(net.pins - 1);
    delta -= static_cast<int>(static_cast<unsigned>(net.on_side0 - 1) < span);
    net.on_side0 += step;
    delta += static_cast<int>(static_cast<unsigned>(net.on_side0 - 1) < span);
  }
  return delta;
}

// mcopt: hot
void PartitionState::flip(CellId c) {
  MCOPT_DCHECK(c < sides_.size(), "flip cell out of range");
  MCOPT_DCHECK(!spec_pending_, "flip while a speculation is pending");
  const netlist::NetIndex& ix = index();
  const std::uint8_t from = sides_[c];
  move_neighbour_gains(ix, c, from);
  // Every two-pin net of c changes state: the cut ones heal, the rest cut.
  cut_ -= gain_[c];
  gain_[c] = -gain_[c];
  if (!wide_.empty()) cut_ += step_wide(ix, c, from == 0 ? -1 : 1);
  sides_[c] ^= 1;
  if (from == 0) {
    --side0_count_;
  } else {
    ++side0_count_;
  }
}

void PartitionState::swap(CellId a, CellId b) {
  if (sides_[a] == sides_[b]) {
    throw std::invalid_argument("PartitionState::swap: same side");
  }
  flip(a);
  flip(b);
}

// mcopt: hot
void PartitionState::speculate_swap(CellId a, CellId b) {
  MCOPT_DCHECK(a < sides_.size() && b < sides_.size(),
               "swap cell out of range");
  MCOPT_DCHECK(sides_[a] != sides_[b], "speculate_swap: same side");
  MCOPT_DCHECK(!spec_pending_, "speculation already pending");
  const netlist::NetIndex& ix = index();
  spec_pending_ = true;
  spec_a_ = a;
  spec_b_ = b;
  // 2 c(a,b): the nets joining a and b stay cut, so the gains, which
  // count them as healed, are corrected by twice their number.
  int weight = 0;
  for (const auto& nb : ix.neighbours(a)) {
    weight += nb.cell == b ? nb.weight : 0;
  }
  spec_weight_ = weight;
  int cut = cut_ - gain_[a] - gain_[b] + weight;
  if (!wide_.empty()) {
    // In place: a wide net on both cells steps there and back, so its
    // two cut changes cancel.
    const int step = sides_[a] == 0 ? -1 : 1;  // a leaves side 0 or joins
    cut += step_wide(ix, a, step);
    cut += step_wide(ix, b, -step);
  }
  spec_cut_ = cut;
}

// mcopt: hot
void PartitionState::commit_speculation() {
  MCOPT_DCHECK(spec_pending_, "commit without a pending speculation");
  const netlist::NetIndex& ix = *index_;
  const CellId a = spec_a_;
  const CellId b = spec_b_;
  const std::uint8_t from = sides_[a];
  const int gain_a = gain_[a];
  const int gain_b = gain_[b];
  move_neighbour_gains(ix, a, from);
  move_neighbour_gains(ix, b, from ^ 1);
  // Re-signed from the saved gains: each cell's nets change state but
  // the ones joining the pair, which stay cut.  This also overwrites
  // what the neighbour loops added to a and b.
  gain_[a] = spec_weight_ - gain_a;
  gain_[b] = spec_weight_ - gain_b;
  sides_[a] ^= 1;
  sides_[b] ^= 1;
  cut_ = spec_cut_;
  // side0_count_ is unchanged: the swap moves one cell each way.  The
  // wide counts were moved by the speculation.
  spec_pending_ = false;
}

// mcopt: hot
void PartitionState::discard_speculation() {
  MCOPT_DCHECK(spec_pending_, "discard without a pending speculation");
  if (!wide_.empty()) {
    const netlist::NetIndex& ix = *index_;
    const int step = sides_[spec_a_] == 0 ? -1 : 1;
    static_cast<void>(step_wide(ix, spec_a_, -step));
    static_cast<void>(step_wide(ix, spec_b_, step));
  }
  spec_pending_ = false;
}

bool PartitionState::verify() const {
  if (speculating()) return false;
  const PartitionState fresh{*netlist_, sides_};
  return fresh.cut_ == cut_ && fresh.gain_ == gain_ && fresh.wide_ == wide_ &&
         fresh.side0_count_ == side0_count_;
}

}  // namespace mcopt::partition

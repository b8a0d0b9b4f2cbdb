#include "linarr/tracks.hpp"

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string>

#include "linarr/density.hpp"

namespace mcopt::linarr {

using netlist::NetId;
using netlist::Netlist;

TrackAssignment assign_tracks(const Netlist& netlist,
                              const Arrangement& arrangement) {
  TrackAssignment out;
  const std::size_t num_nets = netlist.num_nets();
  out.nets.resize(num_nets);
  for (NetId n = 0; n < num_nets; ++n) {
    const auto [lo, hi] = net_extent(netlist, arrangement, n);
    out.nets[n] = RoutedNet{n, lo, hi, 0};
  }

  // Left-edge: process intervals by increasing left end; first-fit onto the
  // lowest track whose previous net ends at or before this net's start
  // (abutment allowed — a net may begin in the column where another ends,
  // matching the boundary-crossing definition of density).
  std::vector<NetId> order(num_nets);
  for (NetId n = 0; n < num_nets; ++n) order[n] = n;
  std::sort(order.begin(), order.end(), [&](NetId a, NetId b) {
    if (out.nets[a].lo != out.nets[b].lo) return out.nets[a].lo < out.nets[b].lo;
    if (out.nets[a].hi != out.nets[b].hi) return out.nets[a].hi < out.nets[b].hi;
    return a < b;
  });

  std::vector<std::size_t> track_end;  // rightmost hi per track
  for (const NetId n : order) {
    RoutedNet& routed = out.nets[n];
    bool placed = false;
    for (std::size_t t = 0; t < track_end.size(); ++t) {
      if (track_end[t] <= routed.lo) {
        routed.track = t;
        track_end[t] = routed.hi;
        placed = true;
        break;
      }
    }
    if (!placed) {
      routed.track = track_end.size();
      track_end.push_back(routed.hi);
    }
  }
  out.num_tracks = track_end.size();
  return out;
}

bool is_valid_assignment(const TrackAssignment& assignment) {
  for (const RoutedNet& a : assignment.nets) {
    if (a.track >= assignment.num_tracks) return false;
    if (a.lo > a.hi) return false;
  }
  for (std::size_t i = 0; i < assignment.nets.size(); ++i) {
    for (std::size_t j = i + 1; j < assignment.nets.size(); ++j) {
      const RoutedNet& a = assignment.nets[i];
      const RoutedNet& b = assignment.nets[j];
      if (a.track != b.track) continue;
      // Same track: the boundary intervals [lo, hi) must not intersect.
      if (a.lo < b.hi && b.lo < a.hi) return false;
    }
  }
  return true;
}

void render_channel(std::ostream& out, const Netlist& netlist,
                    const Arrangement& arrangement,
                    const TrackAssignment& assignment) {
  const std::size_t width = arrangement.size();
  std::vector<std::string> grid(assignment.num_tracks,
                                std::string(width, ' '));
  for (const RoutedNet& net : assignment.nets) {
    auto& row = grid[net.track];
    for (std::size_t col = net.lo; col <= net.hi; ++col) row[col] = '-';
    for (const auto cell : netlist.pins(net.net)) {
      const std::size_t pos = arrangement.position_of(cell);
      row[pos] = static_cast<char>('0' + net.net % 10);
    }
  }
  for (std::size_t t = assignment.num_tracks; t-- > 0;) {
    out << "track " << t << " |" << grid[t] << "|\n";
  }
  out << "cells    ";
  for (std::size_t pos = 0; pos < width; ++pos) {
    out << static_cast<char>('0' + arrangement.cell_at(pos) % 10);
  }
  out << '\n';
}

}  // namespace mcopt::linarr

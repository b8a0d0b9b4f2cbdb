#include "obs/profiler.hpp"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_number.hpp"

namespace mcopt::obs {

std::int32_t ProfileTree::find_or_add(std::int32_t parent, const char* name) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent == parent && nodes[i].name == name) {
      return static_cast<std::int32_t>(i);
    }
  }
  ProfileNode node;
  node.name = name;
  node.parent = parent;
  nodes.push_back(std::move(node));
  return static_cast<std::int32_t>(nodes.size() - 1);
}

void ProfileTree::merge(const ProfileTree& other) {
  // Parents precede children in `other` (nodes are created on scope entry),
  // so one forward pass can map every foreign index to a local one.
  std::vector<std::int32_t> local(other.nodes.size(), -1);
  for (std::size_t i = 0; i < other.nodes.size(); ++i) {
    const ProfileNode& node = other.nodes[i];
    const std::int32_t parent =
        node.parent < 0 ? -1 : local[static_cast<std::size_t>(node.parent)];
    const std::int32_t mine = find_or_add(parent, node.name.c_str());
    local[i] = mine;
    nodes[static_cast<std::size_t>(mine)].calls += node.calls;
    nodes[static_cast<std::size_t>(mine)].ticks += node.ticks;
    nodes[static_cast<std::size_t>(mine)].wall_ns += node.wall_ns;
  }
}

void ProfileTree::nest_under(const char* name, std::uint64_t calls,
                             std::uint64_t ticks) {
  ProfileNode root;
  root.name = name;
  root.parent = -1;
  root.calls = calls;
  root.ticks = ticks;
  for (const ProfileNode& node : nodes) {
    if (node.parent < 0) root.wall_ns += node.wall_ns;
  }
  // Prepend so the parent-before-child invariant survives for merge().
  std::vector<ProfileNode> out;
  out.reserve(nodes.size() + 1);
  out.push_back(std::move(root));
  for (ProfileNode& node : nodes) {
    node.parent = node.parent < 0 ? 0 : node.parent + 1;
    out.push_back(std::move(node));
  }
  nodes = std::move(out);
}

namespace {

void append_node_json(const ProfileTree& tree, std::int32_t index,
                      bool include_wall, std::string& out) {
  const auto& node = tree.nodes[static_cast<std::size_t>(index)];
  out += "{\"name\": \"";
  out += node.name;
  out += "\", \"calls\": ";
  append_u64(node.calls, out);
  out += ", \"ticks\": ";
  append_u64(node.ticks, out);
  if (include_wall) {
    out += ", \"wall_ns\": ";
    append_u64(node.wall_ns, out);
  }
  out += ", \"children\": [";
  bool first = true;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (tree.nodes[i].parent != index) continue;
    if (!first) out += ", ";
    first = false;
    append_node_json(tree, static_cast<std::int32_t>(i), include_wall, out);
  }
  out += "]}";
}

}  // namespace

std::string ProfileTree::to_json(bool include_wall) const {
  std::string out = "[";
  bool first = true;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent >= 0) continue;
    if (!first) out += ", ";
    first = false;
    append_node_json(*this, static_cast<std::int32_t>(i), include_wall, out);
  }
  out += "]";
  return out;
}

}  // namespace mcopt::obs

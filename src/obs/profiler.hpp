// Hierarchical stage profiler.
//
// A ProfileTree is a per-run call tree of named scopes with dual
// accounting: deterministic work (`calls`, `ticks` — pure functions of the
// seed) and wall-clock nanoseconds (`wall_ns` — measurement only, excluded
// from the bit-reproducibility contract exactly like RunMetrics'
// *_seconds fields).  The runners open scopes with MCOPT_PROFILE_SCOPE and
// charge budget ticks into them; the multistart engines merge each
// restart's tree in index order and re-root the result under a
// "multistart" node, so an 8-thread run produces the same deterministic
// tree as the sequential loop.
//
// The tree lives inside RunMetrics (so it rides every existing shard-merge
// path for free); the Recorder owns the open-scope stack.  ProfileScope is
// the RAII handle: construction is a single predicted branch when
// profiling is off, so scopes can stay compiled into the runners —
// bench/hotloop holds the off-path cost to the same <1% gate as
// the rest of the instrumentation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcopt::obs {

class Recorder;

struct ProfileNode {
  std::string name;
  std::int32_t parent = -1;  ///< index into ProfileTree::nodes; -1 = root
  std::uint64_t calls = 0;   ///< times the scope was entered (deterministic)
  std::uint64_t ticks = 0;   ///< budget ticks charged inside (deterministic)
  std::uint64_t wall_ns = 0; ///< wall time inside (nondeterministic)
};

struct ProfileTree {
  /// Nodes in creation order; a parent always precedes its children, which
  /// is what lets merge() map another tree's indices in one forward pass.
  std::vector<ProfileNode> nodes;

  [[nodiscard]] bool empty() const noexcept { return nodes.empty(); }

  /// Child of `parent` (-1 = root level) named `name`, created on demand.
  std::int32_t find_or_add(std::int32_t parent, const char* name);

  /// Structural merge: same-named nodes under the same parent accumulate.
  /// Deterministic given the other tree's node order; the engines call it
  /// in restart-index order.
  void merge(const ProfileTree& other);

  /// Re-roots the tree: existing root-level nodes become children of a new
  /// node `name` carrying the given deterministic accounting and the sum
  /// of its children's wall time.  Used by the multistart engines.
  void nest_under(const char* name, std::uint64_t calls, std::uint64_t ticks);

  /// Nested JSON array of {"name","calls","ticks"[,"wall_ns"],"children"}.
  /// `include_wall = false` yields the deterministic form compared
  /// byte-for-byte across thread counts.
  [[nodiscard]] std::string to_json(bool include_wall = true) const;
};

/// RAII scope: enters a profile node on the recorder (no-op when the
/// recorder is off or not profiling).  add_ticks() charges deterministic
/// work to the node.
///
/// The constructor, destructor, and add_ticks() are defined inline at the
/// bottom of obs/recorder.hpp (they need the Recorder definition, and
/// recorder.hpp includes this header): when profiling is off each reduces
/// to one inlined predicted branch instead of an out-of-line call, which
/// is what keeps MCOPT_PROFILE_SCOPE compiled into the runners within the
/// bench/hotloop off-path gate.
class ProfileScope {
 public:
  inline ProfileScope(Recorder& recorder, const char* name);
  inline ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  inline void add_ticks(std::uint64_t n);

 private:
  Recorder* recorder_;  // null when profiling is off
};

#define MCOPT_PROFILE_CONCAT_IMPL(a, b) a##b
#define MCOPT_PROFILE_CONCAT(a, b) MCOPT_PROFILE_CONCAT_IMPL(a, b)
/// Opens a named profile scope on `rec` for the rest of the block.
#define MCOPT_PROFILE_SCOPE(rec, name)                                  \
  ::mcopt::obs::ProfileScope MCOPT_PROFILE_CONCAT(mcopt_profile_scope_, \
                                                  __LINE__) {           \
    (rec), (name)                                                       \
  }

}  // namespace mcopt::obs

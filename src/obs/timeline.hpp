// Chrome Trace Event Format export of ProfileTrees, viewable in Perfetto.
//
// A ProfileTree is a call tree of *accumulated* scopes (calls, ticks,
// wall_ns), not a log of individual enter/exit timestamps —
// the profiler deliberately stores O(scopes) state, not O(calls).  The
// TimelineBuilder therefore renders each tree as a synthetic timeline:
// root scopes are laid end to end on their (pid, tid) lane, each span's
// duration is the scope's accumulated wall_ns, and children start at
// their parent's start and pack sequentially inside it.  Horizontal
// extent is real measured time; horizontal *position* is layout.  That is
// exactly what Perfetto's flame-style view needs to show where the run's
// time went, and the child-sums-never-exceed-parent invariant (pinned in
// profiler_test) guarantees the nesting is renderable.
//
// The driver writes one lane per merged aggregate tree plus one lane per
// worker from the parallel row runs, appended in job-index order, so the
// file is reproducible given the same wall-clock measurements.  Spans
// carry the deterministic accounting (calls, ticks) in their args.
//
// Format reference: the "JSON Array Format"/"traceEvents" object accepted
// by chrome://tracing and ui.perfetto.dev; "X" complete events with ts /
// dur in microseconds, "M" metadata events naming process and thread
// lanes.  tools/trace_timeline.py validates the emitted subset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"

namespace mcopt::obs {

class TimelineBuilder {
 public:
  /// Names the process lane (one "M" process_name record, deduplicated).
  void set_process_name(std::uint32_t pid, const std::string& name);
  /// Names the thread lane (one "M" thread_name record, deduplicated).
  void set_thread_name(std::uint32_t pid, std::uint32_t tid,
                       const std::string& name);

  /// Renders `tree` onto lane (pid, tid), appending after any spans the
  /// lane already carries.  Empty trees add nothing.
  void add_tree(const ProfileTree& tree, std::uint32_t pid,
                std::uint32_t tid);

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t num_events() const noexcept {
    return events_.size();
  }

  /// The complete JSON document: {"traceEvents": [...], ...}, newline
  /// terminated.  Deterministic given the same add_* call sequence.
  [[nodiscard]] std::string to_json() const;

 private:
  struct TimelineEvent {
    std::string name;
    char ph = 'X';  // 'X' complete span | 'M' metadata
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::string args_json;  // pre-serialized {...}; never empty
  };

  void add_span(const ProfileTree& tree, std::int32_t index,
                std::uint32_t pid, std::uint32_t tid, std::uint64_t start_ns);

  std::vector<TimelineEvent> events_;
  /// Append cursor per (pid, tid) lane, in ns.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> cursors_;
  /// Lanes already named, so repeated set_*_name calls stay idempotent.
  std::set<std::uint32_t> named_processes_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> named_threads_;
};

}  // namespace mcopt::obs

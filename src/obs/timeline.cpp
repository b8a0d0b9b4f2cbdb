#include "obs/timeline.hpp"

#include <cstddef>
#include <cstdio>

#include "obs/json_number.hpp"

namespace mcopt::obs {

namespace {

/// Minimal JSON string escape: scope names are identifiers today, but the
/// exporter must not be the thing that breaks if one ever is not.
void append_escaped(const std::string& text, std::string& out) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Microseconds with nanosecond precision — the ts/dur unit the Trace
/// Event Format specifies.
void append_us(std::uint64_t ns, std::string& out) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%llu.%03llu",
                              static_cast<unsigned long long>(ns / 1000),
                              static_cast<unsigned long long>(ns % 1000));
  out.append(buf, static_cast<std::size_t>(n > 0 ? n : 0));
}

}  // namespace

void TimelineBuilder::set_process_name(std::uint32_t pid,
                                       const std::string& name) {
  if (!named_processes_.insert(pid).second) return;
  TimelineEvent event;
  event.name = "process_name";
  event.ph = 'M';
  event.pid = pid;
  event.args_json = "{\"name\": \"";
  append_escaped(name, event.args_json);
  event.args_json += "\"}";
  events_.push_back(std::move(event));
}

void TimelineBuilder::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                      const std::string& name) {
  if (!named_threads_.insert({pid, tid}).second) return;
  TimelineEvent event;
  event.name = "thread_name";
  event.ph = 'M';
  event.pid = pid;
  event.tid = tid;
  event.args_json = "{\"name\": \"";
  append_escaped(name, event.args_json);
  event.args_json += "\"}";
  events_.push_back(std::move(event));
}

void TimelineBuilder::add_span(const ProfileTree& tree, std::int32_t index,
                               std::uint32_t pid, std::uint32_t tid,
                               std::uint64_t start_ns) {
  const ProfileNode& node = tree.nodes[static_cast<std::size_t>(index)];
  TimelineEvent event;
  event.name = node.name;
  event.ph = 'X';
  event.pid = pid;
  event.tid = tid;
  event.ts_ns = start_ns;
  event.dur_ns = node.wall_ns;
  event.args_json = "{\"calls\": ";
  append_u64(node.calls, event.args_json);
  event.args_json += ", \"ticks\": ";
  append_u64(node.ticks, event.args_json);
  event.args_json += "}";
  events_.push_back(std::move(event));

  // Children pack sequentially from the parent's start; the profiler's
  // child-sums <= parent invariant keeps them inside the parent span.
  std::uint64_t child_start = start_ns;
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (tree.nodes[i].parent != index) continue;
    add_span(tree, static_cast<std::int32_t>(i), pid, tid, child_start);
    child_start += tree.nodes[i].wall_ns;
  }
}

void TimelineBuilder::add_tree(const ProfileTree& tree, std::uint32_t pid,
                               std::uint32_t tid) {
  std::uint64_t& cursor = cursors_[{pid, tid}];
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    if (tree.nodes[i].parent >= 0) continue;
    add_span(tree, static_cast<std::int32_t>(i), pid, tid, cursor);
    cursor += tree.nodes[i].wall_ns;
  }
}

std::string TimelineBuilder::to_json() const {
  std::string out = "{\n  \"traceEvents\": [";
  bool first = true;
  for (const TimelineEvent& event : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    append_escaped(event.name, out);
    out += "\", \"ph\": \"";
    out += event.ph;
    out += "\", \"pid\": ";
    append_u64(event.pid, out);
    out += ", \"tid\": ";
    append_u64(event.tid, out);
    if (event.ph == 'X') {
      out += ", \"cat\": \"profile\", \"ts\": ";
      append_us(event.ts_ns, out);
      out += ", \"dur\": ";
      append_us(event.dur_ns, out);
    }
    out += ", \"args\": ";
    out += event.args_json;
    out += "}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

}  // namespace mcopt::obs

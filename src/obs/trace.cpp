#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "obs/json_number.hpp"

namespace mcopt::obs {

namespace {

/// Flush threshold for the JSONL writer; large enough that the file write
/// cost amortizes, small enough that a crashed run still leaves a useful
/// trace prefix on disk.
constexpr std::size_t kJsonlBufferBytes = 1 << 16;

/// Copies `text` to `out`; returns one past its end.
char* put(char* out, std::string_view text) noexcept {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
#define MCOPT_EVENT_KIND(id, wire_name, deterministic) \
  case EventKind::id:                                  \
    return wire_name;
#include "obs/schema.def"
  }
  return "unknown";
}

const char* stage_reason_name(StageReason reason) noexcept {
  switch (reason) {
#define MCOPT_STAGE_REASON(id, wire_name, on_stage_begin) \
  case StageReason::id:                                   \
    return wire_name;
#include "obs/schema.def"
  }
  return "unknown";
}

void append_jsonl(const Event& event, std::string& out) {
  char line[kJsonlLineCap];
  out.append(line, format_jsonl(event, line, sizeof line));
}

// mcopt: hot
std::size_t format_jsonl(const Event& event, char* buf,
                         std::size_t cap) noexcept {
  if (cap < kJsonlLineCap) {
    // Encode into a full-size line, then copy it only if it fits.
    char line[kJsonlLineCap];
    const std::size_t n = format_jsonl(event, line, sizeof line);
    if (n >= cap) return 0;
    std::memcpy(buf, line, n + 1);
    return n;
  }
  // Every write below is bounded, and the longest line (all integers at
  // UINT64_MAX, both costs at -DBL_MAX, a stage_begin reason) stays well
  // under kJsonlLineCap.  snprintf runs only for a non-integral cost; it
  // is not formally async-signal-safe, but allocates nothing on common
  // libcs: the accepted best-effort trade for a crash-path dump.
  char* p = buf;
  p = put(p, "{\"event\":\"");
  p = put(p, event_kind_name(event.kind));
  p = put(p, "\",\"run\":");
  p = write_u64(p, event.run);
  p = put(p, ",\"restart\":");
  p = write_u64(p, event.restart);
  p = put(p, ",\"worker\":");
  p = write_u64(p, event.worker);
  p = put(p, ",\"tick\":");
  p = write_u64(p, event.tick);
  p = put(p, ",\"stage\":");
  p = write_u64(p, event.stage);
  p = put(p, ",\"cost\":");
  p = write_double(p, event.cost);
  p = put(p, ",\"best\":");
  p = write_double(p, event.best);
  if (event.kind == EventKind::kStageBegin) {  // the only lines with a reason
    p = put(p, ",\"reason\":\"");
    p = put(p, stage_reason_name(event.reason));
    p = put(p, "\"");
  }
  p = put(p, "}\n");
  *p = '\0';
  return static_cast<std::size_t>(p - buf);
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RingBufferSink: capacity must be >= 1");
  }
  buffer_.reserve(capacity);
}

// mcopt: hot
void RingBufferSink::write(const Event& event) {
  if (!full_) {
    // Within the capacity reserved at construction: never reallocates.
    buffer_.push_back(event);  // mcopt-lint: allow(hot-loop-alloc)
    if (buffer_.size() == capacity_) full_ = true;  // next_ stays 0: oldest
    return;
  }
  buffer_[next_] = event;
  // Wrap by compare: a division per event showed in the ring tier.
  next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
  ++dropped_;
}

std::vector<Event> RingBufferSink::snapshot() const {
  std::vector<Event> out;
  out.reserve(buffer_.size());
  if (!full_) {
    out.assign(buffer_.begin(), buffer_.end());
    return out;
  }
  for (std::size_t i = 0; i < capacity_; ++i) {
    out.push_back(buffer_[(next_ + i) % capacity_]);
  }
  return out;
}

// The crash path may interrupt the writer mid-write.  The constructor's
// reserve() pins buffer_'s data pointer for the object's lifetime (size
// never exceeds capacity), and every index is clamped, so the worst
// outcome is a torn line, not an out-of-bounds read.
std::size_t RingBufferSink::crash_dump(int fd) const noexcept {
  const std::size_t count = std::min(buffer_.size(), capacity_);
  const std::size_t start = full_ && capacity_ != 0 ? next_ % capacity_ : 0;
  std::size_t lines = 0;
  char line[kJsonlLineCap];
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = buffer_[(start + i) % capacity_];
    const std::size_t len = format_jsonl(event, line, sizeof line);
    if (len == 0) continue;
    if (::write(fd, line, len) != static_cast<ssize_t>(len)) break;
    ++lines;
  }
  return lines;
}

// The buffer holds one full line past the flush threshold, so a line
// formatted at any fill below the threshold always fits.
JsonlFileSink::JsonlFileSink(const std::string& path)
    : file_(path), out_(&file_), buffer_(kJsonlBufferBytes + kJsonlLineCap) {
  if (!file_) {
    throw std::invalid_argument("JsonlFileSink: cannot open " + path);
  }
}

JsonlFileSink::JsonlFileSink(std::ostream& out)
    : out_(&out), buffer_(kJsonlBufferBytes + kJsonlLineCap) {}

JsonlFileSink::~JsonlFileSink() { flush(); }

// mcopt: hot
void JsonlFileSink::write(const Event& event) {
  // Formats straight into the buffer: no stack line, no copy.
  used_ += format_jsonl(event, buffer_.data() + used_, kJsonlLineCap);
  ++written_;
  if (used_ >= kJsonlBufferBytes) flush();
}

void JsonlFileSink::flush() {
  if (used_ != 0) {
    out_->write(buffer_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }
  out_->flush();
  if (!*out_) failed_ = true;
}

}  // namespace mcopt::obs

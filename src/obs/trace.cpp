#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace mcopt::obs {

namespace {

/// Flush threshold for the JSONL writer; large enough that the file write
/// cost amortizes, small enough that a crashed run still leaves a useful
/// trace prefix on disk.
constexpr std::size_t kJsonlBufferBytes = 1 << 16;

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
  char line[256];
  out.append(line, format_jsonl(event, line, sizeof line));
}

std::size_t format_jsonl(const Event& event, char* buf,
                         std::size_t cap) noexcept {
  // snprintf is not formally async-signal-safe, but this numeric subset
  // allocates nothing on common libcs — the accepted best-effort trade for
  // a crash-path dump.  Only stage_begin lines carry the reason key.
  const bool staged = event.kind == EventKind::kStageBegin;
  const int n = std::snprintf(
      buf, cap,
      "{\"event\":\"%s\",\"run\":%llu,\"restart\":%llu,\"worker\":%llu,"
      "\"tick\":%llu,\"stage\":%llu,\"cost\":%.17g,\"best\":%.17g%s%s%s}\n",
      event_kind_name(event.kind), static_cast<unsigned long long>(event.run),
      static_cast<unsigned long long>(event.restart),
      static_cast<unsigned long long>(event.worker),
      static_cast<unsigned long long>(event.tick),
      static_cast<unsigned long long>(event.stage), event.cost, event.best,
      staged ? ",\"reason\":\"" : "",
      staged ? stage_reason_name(event.reason) : "", staged ? "\"" : "");
  if (n <= 0 || static_cast<std::size_t>(n) >= cap) return 0;
  return static_cast<std::size_t>(n);
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RingBufferSink: capacity must be >= 1");
  }
  util::MutexLock lock{mu_};
  buffer_.reserve(capacity);
}

void RingBufferSink::write(const Event& event) {
  util::MutexLock lock{mu_};
  if (!full_) {
    buffer_.push_back(event);
    if (buffer_.size() == capacity_) full_ = true;  // next_ stays 0: oldest
    return;
  }
  buffer_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Event> RingBufferSink::snapshot_locked() const {
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

std::vector<Event> RingBufferSink::snapshot() const {
  util::MutexLock lock{mu_};
  return snapshot_locked();
}

// NO_THREAD_SAFETY_ANALYSIS: this is the documented crash-path escape
// hatch — taking mu_ inside a signal handler could deadlock on the very
// thread that crashed mid-write, so the ring is read unlocked.  The
// constructor's reserve() pins buffer_'s data pointer for the object's
// lifetime (size never exceeds capacity), and every index is clamped, so
// the worst concurrent outcome is a torn line, not an out-of-bounds read.
std::size_t RingBufferSink::crash_dump(int fd) const noexcept
    NO_THREAD_SAFETY_ANALYSIS {
  const std::size_t count = std::min(buffer_.size(), capacity_);
  const std::size_t start = full_ && capacity_ != 0 ? next_ % capacity_ : 0;
  std::size_t lines = 0;
  char line[512];
  for (std::size_t i = 0; i < count; ++i) {
    const Event& event = buffer_[(start + i) % capacity_];
    const std::size_t len = format_jsonl(event, line, sizeof line);
    if (len == 0) continue;
    if (::write(fd, line, len) != static_cast<ssize_t>(len)) break;
    ++lines;
  }
  return lines;
}

std::size_t RingBufferSink::size() const {
  util::MutexLock lock{mu_};
  return buffer_.size();
}

std::uint64_t RingBufferSink::dropped() const {
  util::MutexLock lock{mu_};
  return dropped_;
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : file_(path), out_(&file_) {
  if (!file_) {
    throw std::invalid_argument("JsonlFileSink: cannot open " + path);
  }
  util::MutexLock lock{mu_};
  buffer_.reserve(kJsonlBufferBytes + 256);
}

JsonlFileSink::JsonlFileSink(std::ostream& out) : out_(&out) {
  util::MutexLock lock{mu_};
  buffer_.reserve(kJsonlBufferBytes + 256);
}

JsonlFileSink::~JsonlFileSink() {
  util::MutexLock lock{mu_};
  flush_locked();
}

void JsonlFileSink::write(const Event& event) {
  util::MutexLock lock{mu_};
  append_jsonl(event, buffer_);
  ++written_;
  if (buffer_.size() >= kJsonlBufferBytes) flush_locked();
}

void JsonlFileSink::flush() {
  util::MutexLock lock{mu_};
  flush_locked();
}

std::uint64_t JsonlFileSink::written() const {
  util::MutexLock lock{mu_};
  return written_;
}

void JsonlFileSink::flush_locked() {
  if (!buffer_.empty()) {
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  out_->flush();
}

}  // namespace mcopt::obs

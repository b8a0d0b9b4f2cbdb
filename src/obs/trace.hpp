// Trace sinks: where Event streams go.
//
// A sink has one writer.  No sink locks: each thread that emits events
// writes its own sink, and whatever reads a sink (a drain, a snapshot, a
// flush) runs on that thread or after it has been joined.  The parallel
// multistart engine and the bench drivers' row jobs keep that rule by
// buffering each restart's or job's events in a private VectorSink shard
// on the worker that ran it; after the join, the calling thread drains the
// shards into its own sink strictly in index order.  That makes a traced
// parallel run produce the same stream as the sequential loop — the
// project's bit-reproducibility contract extends to traces, except for the
// `worker` field and kWorkerSteal events (see obs/event.hpp).  The one
// reader that may run beside a writer is the flight recorder's crash dump
// (RingBufferSink::crash_dump), which is best-effort by design.
//
// Three sinks cover the intended uses:
//   * JsonlFileSink — one JSON object per line, the on-disk interchange
//     format consumed by tools/mcopt_report.py;
//   * RingBufferSink — bounded in-memory tail for always-on tracing (keeps
//     the last N events, counts what it dropped);
//   * VectorSink — unbounded in-memory buffer for shards and tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace mcopt::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Called by the sink's one writer (see the header comment).
  virtual void write(const Event& event) = 0;
  /// Push any buffered output to the underlying medium.  No-op by default.
  virtual void flush() {}
};

/// Unbounded in-memory buffer; the shard sink of the multistart engines.
class VectorSink final : public TraceSink {
 public:
  void write(const Event& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  /// Moves the buffered events out, leaving the sink empty.
  [[nodiscard]] std::vector<Event> take() { return std::exchange(events_, {}); }

 private:
  std::vector<Event> events_;
};

/// Bounded buffer keeping the most recent `capacity` events.
class RingBufferSink final : public TraceSink {
 public:
  /// Capacity must be >= 1; throws std::invalid_argument otherwise.
  explicit RingBufferSink(std::size_t capacity);

  void write(const Event& event) override;

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  /// Events overwritten because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// CRASH PATH ONLY: writes the buffered events as JSONL straight to a
  /// file descriptor, oldest first, formatting each line into a stack
  /// buffer — no allocation, no iostreams, so it is safe to call from a
  /// signal or terminate handler, even one that interrupted the writer
  /// mid-write.  Reads are best-effort (a slot caught mid-write may come
  /// out torn as a garbled line; indices are clamped so the walk itself
  /// stays in bounds).  Returns the number of lines written.
  std::size_t crash_dump(int fd) const noexcept;

 private:
  const std::size_t capacity_;
  std::vector<Event> buffer_;
  std::size_t next_ = 0;
  bool full_ = false;
  std::uint64_t dropped_ = 0;
};

/// JSONL writer (see obs/event.hpp append_jsonl for the schema).  Output is
/// buffered and flushed on flush() and destruction.  A failed write does
/// not throw from write(); failed() reports it once the buffer has been
/// flushed.
class JsonlFileSink final : public TraceSink {
 public:
  /// Opens `path` for writing; throws std::invalid_argument on failure.
  explicit JsonlFileSink(const std::string& path);
  /// Writes to a caller-owned stream (tests, stdout piping).
  explicit JsonlFileSink(std::ostream& out);
  ~JsonlFileSink() override;

  void write(const Event& event) override;
  void flush() override;

  /// Events written so far (buffered or not).
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }
  /// True once a flush has failed to reach the stream (disk full, closed
  /// pipe); sticky.  Events after the failure are counted but lost.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  std::ofstream file_;  // used by the path constructor
  std::ostream* out_;   // always valid; aliases file_ or the caller's stream
  /// Fixed size; lines are formatted in place into buffer_[used_...].
  std::vector<char> buffer_;
  std::size_t used_ = 0;
  std::uint64_t written_ = 0;
  bool failed_ = false;
};

/// Fans one stream out to two sinks (e.g. a JSONL file AND the flight
/// recorder's ring).  The tee is the one writer of both children.  Both
/// pointers must outlive the tee and be non-null.
class TeeSink final : public TraceSink {
 public:
  TeeSink(TraceSink* first, TraceSink* second)
      : first_(first), second_(second) {}

  void write(const Event& event) override {
    first_->write(event);
    second_->write(event);
  }
  void flush() override {
    first_->flush();
    second_->flush();
  }

 private:
  TraceSink* first_;
  TraceSink* second_;
};

}  // namespace mcopt::obs

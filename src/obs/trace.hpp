// Trace sinks: where Event streams go.
//
// Every sink is internally synchronized (a util::Mutex guards its buffer
// state, enforced by the thread-safety build), so a sink may be shared
// across threads, though no writer in the project shares one.
// Determinism of the *order* of a stream is the writers' contract, not the
// sink's: the parallel multistart engine buffers each restart's events in
// a private VectorSink shard (one per restart, on the worker that ran it)
// and the reducing thread drains the shards into the caller's sink
// strictly in restart-index order.  That makes a traced parallel run produce the same
// stream as the sequential loop — the project's bit-reproducibility
// contract extends to traces, except for the `worker` field and
// kWorkerSteal events (see obs/event.hpp).
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
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Safe to call from any thread; implementations lock internally.
  virtual void write(const Event& event) = 0;
  /// Push any buffered output to the underlying medium.  No-op by default.
  virtual void flush() {}
};

/// Unbounded in-memory buffer; the shard sink of the multistart engines.
class VectorSink final : public TraceSink {
 public:
  void write(const Event& event) override EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    events_.push_back(event);
  }

  /// A copy of the buffered events (a reference would escape mu_).
  [[nodiscard]] std::vector<Event> events() const EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    return events_;
  }
  /// Moves the buffered events out, leaving the sink empty.
  [[nodiscard]] std::vector<Event> take() EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    return std::exchange(events_, {});
  }
  void clear() EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    events_.clear();
  }

 private:
  mutable util::Mutex mu_;
  std::vector<Event> events_ GUARDED_BY(mu_);
};

/// Bounded buffer keeping the most recent `capacity` events.
class RingBufferSink final : public TraceSink {
 public:
  /// Capacity must be >= 1; throws std::invalid_argument otherwise.
  explicit RingBufferSink(std::size_t capacity);

  void write(const Event& event) override EXCLUDES(mu_);

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const EXCLUDES(mu_);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_);
  /// Events overwritten because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const EXCLUDES(mu_);

  /// CRASH PATH ONLY: writes the buffered events as JSONL straight to a
  /// file descriptor, oldest first, formatting each line into a stack
  /// buffer — no locking, no allocation, no iostreams, so it is safe to
  /// call from a signal or terminate handler while other threads are
  /// stopped mid-write.  Reads are best-effort (a concurrently written
  /// slot may come out torn as a garbled line; indices are clamped so the
  /// walk itself stays in bounds).  Returns the number of lines written.
  std::size_t crash_dump(int fd) const noexcept NO_THREAD_SAFETY_ANALYSIS;

 private:
  /// Shared by snapshot() and the (locked) parts of write.
  [[nodiscard]] std::vector<Event> snapshot_locked() const REQUIRES(mu_);

  const std::size_t capacity_;  // immutable after construction: no guard
  mutable util::Mutex mu_;
  std::vector<Event> buffer_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;
  bool full_ GUARDED_BY(mu_) = false;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

/// JSONL writer (see obs/event.hpp append_jsonl for the schema).  Output is
/// buffered and flushed on flush() and destruction.  Lines are appended
/// atomically under the sink's mutex, so concurrent writers interleave per
/// event, never mid-line.  A failed write does not throw from write();
/// failed() reports it once the buffer has been flushed.
class JsonlFileSink final : public TraceSink {
 public:
  /// Opens `path` for writing; throws std::invalid_argument on failure.
  explicit JsonlFileSink(const std::string& path);
  /// Writes to a caller-owned stream (tests, stdout piping).
  explicit JsonlFileSink(std::ostream& out);
  ~JsonlFileSink() override;

  void write(const Event& event) override EXCLUDES(mu_);
  void flush() override EXCLUDES(mu_);

  /// Events written so far (buffered or not).
  [[nodiscard]] std::uint64_t written() const EXCLUDES(mu_);
  /// True once a flush has failed to reach the stream (disk full, closed
  /// pipe); sticky.  Events after the failure are counted but lost.
  [[nodiscard]] bool failed() const EXCLUDES(mu_);

 private:
  void flush_locked() REQUIRES(mu_);

  std::ofstream file_;  // used by the path constructor
  mutable util::Mutex mu_;
  /// Always valid; aliases file_ or the caller's stream.  The stream is
  /// only touched with mu_ held.
  std::ostream* out_ PT_GUARDED_BY(mu_);
  /// Fixed size; lines are formatted in place into buffer_[used_...].
  std::vector<char> buffer_ GUARDED_BY(mu_);
  std::size_t used_ GUARDED_BY(mu_) = 0;
  std::uint64_t written_ GUARDED_BY(mu_) = 0;
  bool failed_ GUARDED_BY(mu_) = false;
};

/// Fans one stream out to two sinks (e.g. a JSONL file AND the flight
/// recorder's ring).  Holds no state of its own, so it needs no lock; the
/// children synchronize internally.  Both pointers must outlive the tee
/// and be non-null.
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

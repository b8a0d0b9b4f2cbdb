// The flight recorder: an always-on bounded last-N-events store with a
// crash dump path.
//
// A long annealing run that aborts — a failed invariant, a SIGSEGV in a
// new problem substrate, an operator SIGTERM — normally takes its trace
// with it (or worse, leaves gigabytes of JSONL the crash site is buried
// in).  The flight recorder keeps the *tail* of the event stream in a
// RingBufferSink and, when the process dies abnormally, dumps those last
// N events as schema-valid JSONL from a signal/terminate handler using
// only allocation-free primitives (RingBufferSink::crash_dump).  The dump
// passes `tools/mcopt_report.py validate` and `diff` like any other
// trace.
//
// It is a process-wide singleton because signal handlers cannot capture
// state.  Lifecycle: arm() once from the main thread before any events
// flow, then install_crash_handlers(); the ring and dump path are never
// re-armed while handlers are live.  The recorder takes no lock: arm()
// sets the ring and the path before any worker thread starts, the ring
// then has one writer like every sink (obs/trace.hpp), and the crash path
// could not take a lock anyway.  Tracing composes: the driver tees the
// normal trace sink and the flight ring (TeeSink), so --trace and
// --flight-recorder stack.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "obs/trace.hpp"

namespace mcopt::obs {

class FlightRecorder {
 public:
  /// Default last-N capacity of the --flight-recorder driver flag.
  static constexpr std::size_t kDefaultCapacity = 4096;

  static FlightRecorder& instance();

  /// Arms the recorder: allocates a fresh ring of `capacity` events whose
  /// crash dump goes to `dump_path`.  Call from the main thread before
  /// events flow; re-arming after install_crash_handlers() is not
  /// supported (a handler may be reading the ring).
  void arm(std::size_t capacity, std::string dump_path);

  [[nodiscard]] bool armed() const noexcept { return ring_ != nullptr; }
  /// The sink runs route events into; null when unarmed.
  [[nodiscard]] TraceSink* sink() const noexcept { return ring_.get(); }
  /// The underlying ring, for inspection; null when unarmed.
  [[nodiscard]] const RingBufferSink* ring() const noexcept {
    return ring_.get();
  }
  [[nodiscard]] const std::string& dump_path() const noexcept { return path_; }

  /// Installs SIGABRT/SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGTERM handlers and a
  /// std::set_terminate hook that dump the ring then re-raise so the
  /// default disposition (core dump, nonzero exit) still happens.
  /// Idempotent.  Call after arm().
  void install_crash_handlers();

  /// CRASH PATH: dumps the ring to dump_path via open/write — no locks,
  /// no allocation, best-effort (see RingBufferSink::crash_dump).  Safe
  /// from a signal handler.  Returns lines written; at most once per
  /// process crash (reentry-guarded by the callers' once flag).
  std::size_t dump_now() const noexcept;

 private:
  FlightRecorder() = default;

  std::unique_ptr<RingBufferSink> ring_;
  std::string path_;
};

}  // namespace mcopt::obs

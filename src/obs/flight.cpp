#include "obs/flight.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

namespace mcopt::obs {

namespace {

/// First crasher wins; a cascading failure (e.g. SIGSEGV inside the
/// SIGABRT dump) must not re-enter the dump.  atomic_flag operations are
/// async-signal-safe.
// Async-signal-safe reentry guard; a mutex cannot be taken in a handler.
std::atomic_flag g_crash_dump_done =  // mcopt-lint: allow(raw-atomic)
    ATOMIC_FLAG_INIT;

/// Handlers already installed?  Guards double-installation only; written
/// from install_crash_handlers() on the main thread.
// Install-once exchange; guards no other state.
std::atomic<bool>  // mcopt-lint: allow(raw-atomic)
    g_handlers_installed{false};

std::terminate_handler g_prev_terminate = nullptr;

void crash_breadcrumb(const char* text) noexcept {
  // The crash path cannot take obs::log's mutex; a raw write(2) of a
  // static string is the async-signal-safe substitute.
  const std::size_t len = std::strlen(text);
  // Best-effort: nothing to do if stderr is gone mid-crash.
  static_cast<void>(::write(STDERR_FILENO, text, len));
}

void dump_once() noexcept {
  if (g_crash_dump_done.test_and_set()) return;
  const std::size_t lines = FlightRecorder::instance().dump_now();
  if (lines > 0) {
    crash_breadcrumb("[mcopt] flight recorder dumped event tail\n");
  }
}

void crash_signal_handler(int sig) {
  dump_once();
  // Restore the default disposition and re-raise so the process still
  // dies the way the signal intended (core dump, 128+sig exit status).
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

[[noreturn]] void flight_terminate_handler() {
  dump_once();
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::arm(std::size_t capacity, std::string dump_path) {
  ring_ = std::make_unique<RingBufferSink>(capacity == 0 ? 1 : capacity);
  path_ = std::move(dump_path);
}

void FlightRecorder::install_crash_handlers() {
  if (g_handlers_installed.exchange(true)) return;
  // Abnormal-death signals whose default disposition kills the process.
  // SIGTERM is included deliberately: an operator/scheduler kill should
  // leave the tail behind too.
  for (const int sig :
       {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGTERM}) {
    std::signal(sig, &crash_signal_handler);
  }
  g_prev_terminate = std::set_terminate(&flight_terminate_handler);
}

// arm() happens before install_crash_handlers() and never again after, so
// ring_/path_ are fixed by the time any handler can run.
std::size_t FlightRecorder::dump_now() const noexcept {
  const RingBufferSink* ring = ring_.get();
  if (ring == nullptr || path_.empty()) return 0;
  const int fd =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0;
  const std::size_t lines = ring->crash_dump(fd);
  static_cast<void>(::close(fd));
  return lines;
}

}  // namespace mcopt::obs

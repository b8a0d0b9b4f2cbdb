// The typed trace-event vocabulary of the observability layer.
//
// The paper's argument is made from run-internal dynamics — acceptance
// rates per temperature stage, uphill-move frequency per g class, where the
// patience counter fires — none of which survive into a final cost.  An
// Event is one observation of those dynamics: a fixed-size, string-free
// record carrying (run, restart, worker) identity so events from parallel
// restarts interleave coherently in one stream.
//
// Determinism contract: every field except `worker` is a pure function of
// the seed (ticks, stages, and costs are; wall-clock never appears here).
// `worker` — and the kWorkerSteal event, which exists to observe the
// parallel engine's scheduling — is the one deliberate exception, and
// consumers that compare traces across thread counts must ignore both
// (`tools/mcopt_report.py diff` and the trace-determinism tests do).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mcopt::obs {

/// Trace event kinds, one per MCOPT_EVENT_KIND line of obs/schema.def, in
/// that order.
enum class EventKind : std::uint8_t {
#define MCOPT_EVENT_KIND(id, wire_name, deterministic) id,
#include "obs/schema.def"
};

/// Why a stage was entered; carried only by kStageBegin events.  One
/// enumerator per MCOPT_STAGE_REASON line of obs/schema.def.
enum class StageReason : std::uint8_t {
#define MCOPT_STAGE_REASON(id, wire_name, on_stage_begin) id,
#include "obs/schema.def"
};

/// One observation.  Fixed-size and trivially copyable so ring buffers and
/// per-restart shards can hold millions without allocation churn.
struct Event {
  EventKind kind = EventKind::kProposal;
  StageReason reason = StageReason::kNone;
  std::uint32_t stage = 0;    ///< temperature level (replica index for
                              ///< tempering); 0 for engine-level events
  std::uint64_t run = 0;      ///< caller-chosen run id (bench: row counter)
  std::uint64_t restart = 0;  ///< restart index within the run
  std::uint64_t worker = 0;   ///< 0 = caller thread; workers are 1-based
  std::uint64_t tick = 0;     ///< budget ticks spent within the restart
  double cost = 0.0;          ///< cost the event observed (see schema docs)
  double best = 0.0;          ///< best-so-far cost when the event fired
};

/// The wire names of obs/schema.def used in the JSONL schema.
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;
[[nodiscard]] const char* stage_reason_name(StageReason reason) noexcept;

/// Appends the canonical single-line JSONL form of `event` (including the
/// trailing newline) to `out`: the line format_jsonl() produces.
void append_jsonl(const Event& event, std::string& out);

/// A buffer this large always holds a JSONL line and its NUL.
inline constexpr std::size_t kJsonlLineCap = 256;

/// Formats the canonical JSONL line of `event` (trailing newline and a NUL
/// terminator included) into a caller-provided buffer — no allocation, so
/// it serves the flight recorder's signal-handler dump path.  Key order is
/// fixed; doubles print as %.17g would, so values round-trip exactly, but
/// an integral cost is written as an integer without printf.  Returns the
/// line length, or 0 if `cap` was too small (a line of n characters needs
/// n + 1 bytes).
[[nodiscard]] std::size_t format_jsonl(const Event& event, char* buf,
                                       std::size_t cap) noexcept;

}  // namespace mcopt::obs

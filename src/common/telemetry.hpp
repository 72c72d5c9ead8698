/// \file telemetry.hpp
/// Run-telemetry subsystem: a span/event recorder plus the two
/// observability sinks — the per-step JSONL stream (`run_case --telemetry`,
/// written by cases::CaseRun from app::Simulation's step meters) and the
/// Chrome trace_event export (`run_case --trace`, one pid row per rank;
/// open in Perfetto or chrome://tracing).  There is no metrics registry:
/// every number a sink reports is a difference of app::StepMeters
/// snapshots or a recorded span.
///
/// Design contract (mirrors common::PhaseProfile):
///   - **Zero overhead when disabled.**  Every recording call is gated on
///     one relaxed atomic-bool load; disabled sites cost a predicted branch
///     and touch no other state.  The gate defaults to off and is flipped
///     once at run setup (cases::CaseRun arms it when a sink is requested),
///     never on a hot path.
///   - **Step-granular when enabled.**  Span/event recording takes a mutex,
///     but spans are recorded at step granularity (a handful per step),
///     never per cell or per plane.
///   - **Provably inert.**  Telemetry only *reads* simulation state and the
///     wall clock; it never touches floating-point fields or scheduling, so
///     state and dt fingerprints are bitwise-identical with it on or off
///     (test-enforced in tests/test_telemetry.cpp).
///
/// Cross-process merging: timestamps are steady_clock ns relative to a
/// process-local epoch, and the system_clock time of that epoch is recorded
/// alongside — Chrome `ts` fields are emitted on the wall clock, so traces
/// serialized by different rank processes (gathered to the IO root over
/// `Transport::send_blob`) land on one common timeline.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace igr::common::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The process-wide gate.  One relaxed load; safe from any thread.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// ---------------------------------------------------------------- recorder --

/// The rank identity stamped into exported trace rows (Chrome `pid`).
/// Defaults to 0; cases::CaseRun sets the transport rank for TCP teams.
void set_rank(int rank);
int rank();

/// Steady-clock nanoseconds since the process telemetry epoch (captured on
/// first use), and the system_clock ns-since-Unix-epoch of that instant —
/// the pair that puts every process on one trace timeline.
std::int64_t now_ns();
std::int64_t wall_epoch_ns();

/// Record a completed span / an instant event.  `args_json` is the literal
/// body of the Chrome `args` object (no braces), e.g. `"step": 4` — empty
/// for none.  No-ops when disabled.
void record_span(std::string_view name, std::int64_t t0_ns,
                 std::int64_t dur_ns, std::string args_json = {});
void record_instant(std::string_view name, std::string args_json = {});

/// Drop all recorded spans/instants.
void clear_events();
std::size_t event_count();

/// RAII span: samples the clock only when telemetry is enabled at entry.
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : name_(name), t0_(enabled() ? now_ns() : -1) {}
  ~SpanScope() {
    if (t0_ >= 0) record_span(name_, t0_, now_ns() - t0_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::int64_t t0_;
};

// ------------------------------------------------------------------- sinks --

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view s);

/// Serialize this process's recorded spans/instants as comma-separated
/// Chrome trace_event objects (no enclosing brackets), stamped with `pid`
/// and a `process_name` metadata row — the per-rank fragment gathered to
/// the IO root.  Timestamps are wall-clock microseconds.
std::string chrome_events(int pid);

/// Write a Chrome trace_event file: a bare JSON array joining the non-empty
/// fragments (the format chrome://tracing and Perfetto load directly, and
/// whose trailing `]` igr_launch rewrites to append supervisor lifecycle
/// events).  Returns false if the file cannot be written.
bool write_trace(const std::string& path,
                 const std::vector<std::string>& fragments);

}  // namespace igr::common::telemetry

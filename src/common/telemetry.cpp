/// \file telemetry.cpp
/// Recorder state for common::telemetry (see telemetry.hpp for the design
/// contract).  Everything lives behind function-local statics so
/// the subsystem has no global-constructor ordering hazards.

#include "common/telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

namespace igr::common::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- recorder --

namespace {

struct SpanRec {
  std::string name;
  std::int64_t t0_ns = 0;
  std::int64_t dur_ns = 0;
  std::string args;
};

struct InstantRec {
  std::string name;
  std::int64_t t_ns = 0;
  std::string args;
};

struct RecorderState {
  std::mutex mu;
  std::vector<SpanRec> spans;
  std::vector<InstantRec> instants;
  std::atomic<int> rank{0};
};

RecorderState& recorder() {
  static RecorderState s;
  return s;
}

/// Epoch pair captured once: steady origin for durations, wall time of that
/// same instant for cross-process alignment.
struct Epoch {
  std::chrono::steady_clock::time_point steady;
  std::int64_t wall_ns;
};

const Epoch& epoch() {
  static const Epoch e = [] {
    Epoch ep;
    ep.steady = std::chrono::steady_clock::now();
    ep.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
    return ep;
  }();
  return e;
}

}  // namespace

void set_rank(int rank) {
  recorder().rank.store(rank, std::memory_order_relaxed);
}

int rank() { return recorder().rank.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch().steady)
      .count();
}

std::int64_t wall_epoch_ns() { return epoch().wall_ns; }

void record_span(std::string_view name, std::int64_t t0_ns,
                 std::int64_t dur_ns, std::string args_json) {
  if (!enabled()) return;
  auto& r = recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  r.spans.push_back({std::string(name), t0_ns, dur_ns, std::move(args_json)});
}

void record_instant(std::string_view name, std::string args_json) {
  if (!enabled()) return;
  auto& r = recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  r.instants.push_back({std::string(name), now_ns(), std::move(args_json)});
}

void clear_events() {
  auto& r = recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  r.spans.clear();
  r.instants.clear();
}

std::size_t event_count() {
  auto& r = recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.spans.size() + r.instants.size();
}

// ------------------------------------------------------------------- sinks --

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Wall-clock microseconds (Chrome's `ts` unit) for a recorder timestamp.
double ts_us(std::int64_t t_ns) {
  return 1.0e-3 * static_cast<double>(epoch().wall_ns + t_ns);
}

void append_event_json(std::string& out, const char* ph, int pid,
                       const std::string& name, double ts, double dur_us,
                       const std::string& args) {
  char buf[160];
  out += "{\"name\": \"" + json_escape(name) + "\", \"ph\": \"" + ph + "\"";
  if (ph[0] == 'i') out += ", \"s\": \"p\"";  // process-scoped instant
  std::snprintf(buf, sizeof(buf), ", \"pid\": %d, \"tid\": 0, \"ts\": %.3f",
                pid, ts);
  out += buf;
  if (ph[0] == 'X') {
    std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", dur_us);
    out += buf;
  }
  if (!args.empty()) out += ", \"args\": {" + args + "}";
  out += "}";
}

}  // namespace

std::string chrome_events(int pid) {
  auto& r = recorder();
  std::lock_guard<std::mutex> lk(r.mu);
  std::string out;
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid) +
         ", \"tid\": 0, \"args\": {\"name\": \"rank " + std::to_string(pid) +
         "\"}}";
  for (const auto& s : r.spans) {
    out += ",\n";
    append_event_json(out, "X", pid, s.name, ts_us(s.t0_ns),
                      1.0e-3 * static_cast<double>(s.dur_ns), s.args);
  }
  for (const auto& i : r.instants) {
    out += ",\n";
    append_event_json(out, "i", pid, i.name, ts_us(i.t_ns), 0.0, i.args);
  }
  return out;
}

bool write_trace(const std::string& path,
                 const std::vector<std::string>& fragments) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("[\n", f);
  bool first = true;
  for (const auto& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) std::fputs(",\n", f);
    std::fputs(frag.c_str(), f);
    first = false;
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace igr::common::telemetry

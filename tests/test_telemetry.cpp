/// Telemetry-subsystem tests: registry semantics (counters / gauges /
/// histograms, disabled = strict no-op), recorder + Chrome trace export
/// validity, the provably-inert contract (state and dt fingerprints bitwise
/// identical with telemetry on or off, across precisions), and — on POSIX —
/// real 2-rank igr_launch runs whose JSONL stream and merged trace are
/// parsed back.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cases/runner.hpp"
#include "common/telemetry.hpp"

namespace {

namespace fs = std::filesystem;
namespace tel = igr::common::telemetry;
using namespace igr;

/// Telemetry is process-global state; every test (and every sub-run inside
/// one) starts from the disabled, zeroed baseline so ordering cannot leak.
void reset_telemetry() {
  tel::set_enabled(false);
  tel::reset_metrics();
  tel::clear_events();
  tel::set_rank(0);
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_telemetry(); }
  void TearDown() override { reset_telemetry(); }
};

fs::path scratch_dir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / ("igr_telemetry_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// --- A minimal recursive-descent JSON validator --------------------------
// Enough grammar to assert the sinks emit *valid* JSON (objects, arrays,
// strings with escapes, numbers, booleans, null) without a JSON dependency.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (peek('}')) return true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!expect(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (peek(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        ++pos_;  // escaped char (\uXXXX hex digits are plain chars here)
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  void ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- Registry semantics --------------------------------------------------

TEST_F(TelemetryTest, DisabledMetricsAreStrictNoOps) {
  ASSERT_FALSE(tel::enabled());
  tel::counter("t.c").add(7);
  tel::gauge("t.g").set(3.5);
  tel::histogram("t.h").record(100);
  EXPECT_EQ(tel::counter("t.c").value(), 0u);
  EXPECT_EQ(tel::gauge("t.g").value(), 0.0);
  EXPECT_EQ(tel::histogram("t.h").count(), 0u);
  tel::record_span("span", 0, 10);
  tel::record_instant("instant");
  EXPECT_EQ(tel::event_count(), 0u);
}

TEST_F(TelemetryTest, CounterGaugeHistogramAccumulate) {
  tel::set_enabled(true);
  auto& c = tel::counter("t.c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&c, &tel::counter("t.c")) << "stable addresses";

  tel::gauge("t.g").set(2.25);
  tel::gauge("t.g").set(-1.5);
  EXPECT_EQ(tel::gauge("t.g").value(), -1.5);

  auto& h = tel::histogram("t.h");
  EXPECT_EQ(h.min(), 0u) << "empty histogram min reads 0";
  h.record(30);
  h.record(10);
  h.record(20);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);

  const auto snap = tel::snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "t.c");
  EXPECT_EQ(snap.counters[0].second, 42u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].sum_ns, 60u);

  tel::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(tel::snapshot().counters.size(), 1u)
      << "reset zeroes values but keeps registrations";
}

TEST_F(TelemetryTest, JsonEscapeHandlesQuotesBackslashesControls) {
  EXPECT_EQ(tel::json_escape("plain"), "plain");
  EXPECT_EQ(tel::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(tel::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(tel::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(tel::json_escape(std::string(1, '\x01')), "\\u0001");
}

// --- Recorder + trace sink -----------------------------------------------

TEST_F(TelemetryTest, SpanScopeRecordsOnlyWhenEnabled) {
  { tel::SpanScope off("off"); }
  EXPECT_EQ(tel::event_count(), 0u);
  tel::set_enabled(true);
  { tel::SpanScope on("on"); }
  EXPECT_EQ(tel::event_count(), 1u);
}

TEST_F(TelemetryTest, WriteTraceEmitsValidJsonWithOnePidPerFragment) {
  tel::set_enabled(true);
  tel::record_span("alpha", 100, 50, "\"step\": 1");
  tel::record_instant("beta", "\"why\": \"quote \\\" inside\"");
  const std::string frag0 = tel::chrome_events(0);
  const std::string frag1 = tel::chrome_events(1);

  const auto dir = scratch_dir("trace_unit");
  const auto path = (dir / "trace.json").string();
  ASSERT_TRUE(tel::write_trace(path, {frag0, frag1, std::string()}));

  const std::string text = slurp(path);
  JsonValidator v(text);
  EXPECT_TRUE(v.valid()) << text;
  EXPECT_NE(text.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(text.find("\"alpha\""), std::string::npos);
  fs::remove_all(dir);
}

// --- Provably inert: bitwise state + dt on/off ---------------------------

struct OnOffResult {
  cases::RunResult off;
  cases::RunResult on;
};

template <class Policy>
OnOffResult run_on_off(const std::string& tag) {
  const auto* spec = cases::find("sod-x");
  EXPECT_NE(spec, nullptr);
  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 8;
  opts.phase_timing = true;

  reset_telemetry();
  OnOffResult r;
  r.off = cases::run_case<Policy>(*spec, opts);
  EXPECT_FALSE(tel::enabled());

  const auto dir = scratch_dir("onoff_" + tag);
  opts.telemetry = (dir / "out.jsonl").string();
  opts.trace = (dir / "trace.json").string();
  r.on = cases::run_case<Policy>(*spec, opts);
  EXPECT_TRUE(tel::enabled()) << "a requested sink arms the gate";
  EXPECT_TRUE(fs::exists(opts.telemetry));
  EXPECT_TRUE(fs::exists(opts.trace));
  fs::remove_all(dir);
  reset_telemetry();
  return r;
}

TEST_F(TelemetryTest, Fp64RunIsBitwiseIdenticalWithTelemetryOnOrOff) {
  const auto r = run_on_off<common::Fp64>("fp64");
  EXPECT_EQ(r.on.state_fnv, r.off.state_fnv);
  EXPECT_EQ(r.on.dt_fnv, r.off.dt_fnv);
  EXPECT_EQ(r.on.steps, r.off.steps);
}

TEST_F(TelemetryTest, Fp16x32RunIsBitwiseIdenticalWithTelemetryOnOrOff) {
  const auto r = run_on_off<common::Fp16x32>("fp16x32");
  EXPECT_EQ(r.on.state_fnv, r.off.state_fnv);
  EXPECT_EQ(r.on.dt_fnv, r.off.dt_fnv);
}

TEST_F(TelemetryTest, JsonlStreamCarriesStepSchemaAndPhases) {
  const auto* spec = cases::find("sod-x");
  ASSERT_NE(spec, nullptr);
  const auto dir = scratch_dir("jsonl");
  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 6;
  opts.phase_timing = true;
  opts.telemetry = (dir / "out.jsonl").string();
  const auto r = cases::run_case<common::Fp64>(*spec, opts);
  EXPECT_TRUE(r.has_phases);
  double total_phase = 0.0;
  for (const double v : r.phase_ns) total_phase += v;
  EXPECT_GT(total_phase, 0.0);

  std::ifstream f(opts.telemetry);
  std::string line;
  int steps = 0;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << line;
    if (line.find("\"step\"") == std::string::npos) continue;
    ++steps;
    EXPECT_NE(line.find("\"dt\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"wall_ns\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"phase_ns\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"sigma_sweeps\""), std::string::npos) << line;
  }
  EXPECT_EQ(steps, 6);
  fs::remove_all(dir);
}

TEST_F(TelemetryTest, SigmaSweepMeterCountsConfiguredSweepsPerRhs) {
  const auto* spec = cases::find("sod-x");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 4;
  cases::CaseRun<common::Fp64> run(*spec, opts);
  run.run();
  // SSP-RK3: 3 RHS evaluations per step, each performing the configured
  // sweep count (sod-x keeps the Sigma solve active).
  const int cfg_sweeps = spec->config().sigma_sweeps;
  EXPECT_EQ(run.sim().sigma_sweeps_done(),
            static_cast<std::uint64_t>(4 * 3 * cfg_sweeps));
}

// --- Real 2-rank process runs (POSIX; needs the built binaries) ----------

#if defined(__unix__) || defined(__APPLE__)
#ifdef IGR_BUILD_DIR

std::string bin(const char* name) {
  return std::string(IGR_BUILD_DIR) + "/" + name;
}

int run_cmd(const std::string& cmd, const fs::path& log) {
  const std::string full = cmd + " >> '" + log.string() + "' 2>&1";
  const int status = std::system(full.c_str());
  return status < 0 ? -1 : WEXITSTATUS(status);
}

TEST_F(TelemetryTest, TwoRankTcpRunMergesOneTracePerRankAndStreamsJsonl) {
  const auto dir = scratch_dir("tcp");
  const auto log = dir / "log.txt";
  const auto jsonl = dir / "out.jsonl";
  const auto trace = dir / "trace.json";

  const std::string launch =
      bin("igr_launch") + " --world 2 --dir " + (dir / "rdv").string() +
      " -- " + bin("run_case") +
      " --case sod-x --ranks 2,1,1 --n 16 --steps 8 --phase-timing" +
      " --telemetry " + jsonl.string() + " --trace " + trace.string();
  ASSERT_EQ(run_cmd(launch, log), 0) << slurp(log);

  // The merged trace is one valid JSON array with one pid row per rank plus
  // the launcher's supervisor row.
  const std::string ttext = slurp(trace);
  JsonValidator v(ttext);
  EXPECT_TRUE(v.valid()) << ttext;
  EXPECT_NE(ttext.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(ttext.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(ttext.find("\"igr_launch\""), std::string::npos);
  EXPECT_NE(ttext.find("\"name\": \"step\""), std::string::npos);

  // The JSONL stream (written by the IO root) carries the halo-wait meter.
  const std::string jtext = slurp(jsonl);
  EXPECT_NE(jtext.find("\"halo_wait_ns\""), std::string::npos) << jtext;
  EXPECT_NE(jtext.find("\"wire_bytes\""), std::string::npos) << jtext;
  std::istringstream lines(jtext);
  std::string line;
  int steps = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValidator lv(line);
    EXPECT_TRUE(lv.valid()) << line;
    if (line.find("\"step\"") != std::string::npos) ++steps;
  }
  EXPECT_EQ(steps, 8);
  fs::remove_all(dir);
}

TEST_F(TelemetryTest, RunCaseJsonStaysValidWhenARunDiverges) {
  // An FP16/32 Sedov blast at CFL 1 overflows binary16 within ten steps,
  // so its energy diagnostics are NaN.  The report must still be valid
  // JSON, with null for every non-finite number.
  const auto dir = scratch_dir("nan");
  const auto log = dir / "log.txt";
  const auto json = dir / "cases.json";
  const std::string cmd = bin("run_case") +
                          " --case sedov --precision fp16x32 --n 16"
                          " --steps 10 --cfl-scale 2.5 --json " +
                          json.string();
  ASSERT_EQ(run_cmd(cmd, log), 0) << slurp(log);
  const std::string text = slurp(json);
  EXPECT_NE(text.find("\"kinetic_energy\": null"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  JsonValidator v(text);
  EXPECT_TRUE(v.valid()) << text;
  fs::remove_all(dir);
}

#endif  // IGR_BUILD_DIR
#endif  // unix

}  // namespace

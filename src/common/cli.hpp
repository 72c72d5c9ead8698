#pragma once
/// \file cli.hpp
/// Shared command-line parsing for the executables (run_case, bench_grind,
/// bench_scaling, igr_launch): one flag cursor plus the typed value
/// parsers every tool used to hand-roll, with uniform "<prog>: ..." errors
/// and exit code 2.  The parsers reject trailing garbage and out-of-range
/// values instead of silently truncating (std::atoi accepted "8x" as 8).
/// Header-only and dependency-free — usable from any executable without
/// linking anything new, and below mesh/ in the layering (the `--ranks`
/// parser returns a RankSpec; balanced layouts are the caller's call into
/// mesh::Decomp).

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

namespace igr::common::cli {

/// Print "<prog>: <msg>" and exit 2 — the uniform CLI error.
[[noreturn]] inline void die(const char* prog, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", prog, msg.c_str());
  std::exit(2);
}

/// strtol of the integer field at `s` into `v`, with `end` past it: false
/// when the field has no digits, overflows a long, or leaves [lo, hi].
inline bool long_field(const char* s, long lo, long hi, long& v,
                       char*& end) {
  errno = 0;
  v = std::strtol(s, &end, 10);
  return end != s && errno != ERANGE && v >= lo && v <= hi;
}

inline constexpr long kIntMax = std::numeric_limits<int>::max();

/// Whole-token integer in [lo, hi]; dies on garbage or range violations.
inline long parse_long(const char* prog, const char* flag, const char* s,
                       long lo = std::numeric_limits<long>::min(),
                       long hi = std::numeric_limits<long>::max()) {
  char* end = nullptr;
  long v = 0;
  const bool in_range = long_field(s, lo, hi, v, end);
  if (end == s || *end != '\0')
    die(prog, std::string("bad ") + flag + " '" + s + "' (not an integer)");
  if (!in_range)
    die(prog, std::string("bad ") + flag + " '" + s + "' (allowed range [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "])");
  return v;
}

/// Whole-token finite floating-point value; dies on garbage, nan and inf.
inline double parse_double(const char* prog, const char* flag,
                           const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0')
    die(prog, std::string("bad ") + flag + " '" + s + "' (not a number)");
  if (!std::isfinite(v))
    die(prog, std::string("bad ") + flag + " '" + s + "' (not finite)");
  return v;
}

/// Comma-separated integers, each in [lo, INT_MAX] (e.g. `--ranks
/// 1,2,4,8`, `--threads 1,2,4`); dies on an empty list or a malformed
/// element.
inline std::vector<int> parse_int_list(const char* prog, const char* flag,
                                       const char* s, long lo = 1) {
  std::vector<int> out;
  const char* p = s;
  while (*p) {
    char* end = nullptr;
    long v = 0;
    if (!long_field(p, lo, kIntMax, v, end) || (*end != '\0' && *end != ','))
      die(prog, std::string("bad ") + flag + " list '" + s + "'");
    out.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  if (out.empty())
    die(prog, std::string("empty ") + flag + " list");
  return out;
}

/// A `--ranks` request: an explicit rx,ry,rz layout, or a bare rank count
/// the caller lays out (mesh::Decomp::balanced_layout — deliberately not
/// called here so this header stays below mesh/).
struct RankSpec {
  std::array<int, 3> layout{1, 1, 1};
  int count = 1;
  bool balanced = false;  ///< true: bare count, caller picks the layout.
};

/// "rx,ry,rz" or a bare rank count N, each field in [1, INT_MAX] and the
/// count rx·ry·rz no larger than INT_MAX.  A comma commits the caller to a
/// full explicit layout: a partial "2,2" or trailing garbage ("2,2,1,4")
/// dies rather than silently passing.
inline RankSpec parse_ranks(const char* prog, const char* flag,
                            const char* s) {
  const std::string bad = std::string("bad ") + flag + " '" + s + "' ";
  long f[3] = {1, 1, 1};
  int fields = 0;
  const char* p = s;
  for (;;) {
    char* end = nullptr;
    if (fields == 3 || !long_field(p, 1, kIntMax, f[fields], end))
      die(prog, bad + "(rx,ry,rz or N, each in [1, 2147483647])");
    ++fields;
    if (*end == '\0') break;
    if (*end != ',') die(prog, bad + "(rx,ry,rz or N)");
    p = end + 1;
  }
  if (fields == 2) die(prog, bad + "(rx,ry,rz or N)");
  // Each field fits in 31 bits, so a partial product checked against
  // INT_MAX cannot overflow a long long.
  const long long xy = static_cast<long long>(f[0]) * f[1];
  if (xy > kIntMax || xy * f[2] > kIntMax)
    die(prog, bad + "(rank count above 2147483647)");
  RankSpec r;
  r.count = static_cast<int>(xy * f[2]);
  r.balanced = fields == 1;
  if (!r.balanced)
    r.layout = {static_cast<int>(f[0]), static_cast<int>(f[1]),
                static_cast<int>(f[2])};
  return r;
}

/// Cursor over argv: `while (args.next())`, `args.is("--flag")`, then one
/// of the typed value consumers.  Each consumer reads the *next* argv token
/// as the current flag's value and dies uniformly when it is missing or
/// malformed.
class Args {
 public:
  Args(const char* prog, int argc, char** argv)
      : prog_(prog), argc_(argc), argv_(argv) {}

  [[nodiscard]] const char* prog() const { return prog_; }
  /// Advance to the next token; false when argv is exhausted.
  bool next() { return ++i_ < argc_; }
  /// The current flag token.
  [[nodiscard]] const char* flag() const { return argv_[i_]; }
  [[nodiscard]] bool is(const char* name) const {
    return std::strcmp(argv_[i_], name) == 0;
  }
  [[noreturn]] void die(const std::string& msg) const {
    cli::die(prog_, msg);
  }

  /// The current flag's raw value token; dies when argv ends first.
  const char* value() {
    if (i_ + 1 >= argc_) die(std::string(flag()) + " needs a value");
    return argv_[++i_];
  }
  /// Integer value in [lo, hi] clamped to the int range, so a value the
  /// int cannot hold dies with the range error instead of wrapping.
  int int_value(long lo = std::numeric_limits<int>::min(),
                long hi = std::numeric_limits<int>::max()) {
    const char* f = flag();
    lo = std::max(lo, static_cast<long>(std::numeric_limits<int>::min()));
    hi = std::min(hi, kIntMax);
    return static_cast<int>(parse_long(prog_, f, value(), lo, hi));
  }
  double double_value() {
    const char* f = flag();
    return parse_double(prog_, f, value());
  }
  std::vector<int> int_list_value(long lo = 1) {
    const char* f = flag();
    return parse_int_list(prog_, f, value(), lo);
  }
  RankSpec ranks_value() {
    const char* f = flag();
    return parse_ranks(prog_, f, value());
  }
  /// Index of the value among `names`; dies listing the valid spellings.
  int choice_value(std::initializer_list<const char*> names) {
    const char* f = flag();
    const char* v = value();
    int idx = 0;
    for (const char* n : names) {
      if (std::strcmp(v, n) == 0) return idx;
      ++idx;
    }
    std::string msg = std::string("bad ") + f + " '" + v + "' (expected ";
    bool first = true;
    for (const char* n : names) {
      if (!first) msg += "|";
      msg += n;
      first = false;
    }
    msg += ")";
    die(msg);
  }

 private:
  const char* prog_;
  int argc_;
  char** argv_;
  int i_ = 0;
};

}  // namespace igr::common::cli

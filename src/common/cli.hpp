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

/// Whole-token integer in [lo, hi]; dies on garbage or range violations.
inline long parse_long(const char* prog, const char* flag, const char* s,
                       long lo = std::numeric_limits<long>::min(),
                       long hi = std::numeric_limits<long>::max()) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0')
    die(prog, std::string("bad ") + flag + " '" + s + "' (not an integer)");
  if (v < lo || v > hi)
    die(prog, std::string("bad ") + flag + " '" + s + "' (allowed range [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "])");
  return v;
}

/// Whole-token floating-point value; dies on garbage.
inline double parse_double(const char* prog, const char* flag,
                           const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0')
    die(prog, std::string("bad ") + flag + " '" + s + "' (not a number)");
  return v;
}

/// Comma-separated integers, each >= lo (e.g. `--ranks 1,2,4,8`,
/// `--threads 1,2,4`); dies on an empty list or a malformed element.
inline std::vector<int> parse_int_list(const char* prog, const char* flag,
                                       const char* s, long lo = 1) {
  std::vector<int> out;
  const char* p = s;
  while (*p) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || (*end != '\0' && *end != ',') || v < lo)
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

/// "rx,ry,rz" or a bare rank count N.  A comma commits the caller to a full
/// explicit layout: a partial "2,2" or trailing garbage ("2,2,1,4") dies
/// rather than silently passing.
inline RankSpec parse_ranks(const char* prog, const char* flag,
                            const char* s) {
  RankSpec r;
  if (std::strchr(s, ',')) {
    int rx = 0, ry = 0, rz = 0;
    char junk = '\0';
    if (std::sscanf(s, "%d,%d,%d%c", &rx, &ry, &rz, &junk) == 3 && rx >= 1 &&
        ry >= 1 && rz >= 1) {
      r.layout = {rx, ry, rz};
      r.count = rx * ry * rz;
      return r;
    }
  } else {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end != s && *end == '\0' && v >= 1) {
      r.count = static_cast<int>(v);
      r.balanced = true;
      return r;
    }
  }
  die(prog, std::string("bad ") + flag + " '" + s + "' (rx,ry,rz or N)");
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
    hi = std::min(hi, static_cast<long>(std::numeric_limits<int>::max()));
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

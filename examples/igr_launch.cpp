/// \file igr_launch.cpp
/// Process launcher for multi-process (tcp-transport) runs: spawn one OS
/// process per rank, hand the team a shared rendezvous directory, and
/// supervise.
///
///   $ ./igr_launch --world 2 -- ./run_case --case sod-x --ranks 2,1,1
///         --steps 20 --json out.json        (one command line, wrapped)
///
/// Each rank is the command after `--` plus the transport flags
/// (`--transport tcp --tp-rank R --tp-world N --tp-dir DIR`) appended by the
/// launcher.  Supervision implements the recovery contract of the
/// fault-tolerance layer:
///
///   - exit 0 from every rank        -> exit 0.
///   - exit 75 (EX_TEMPFAIL) or a    -> the loss is *retryable*: SIGKILL the
///     signal death from any rank       survivors, reap everyone, and respawn
///                                      the full team with `--resume` into a
///                                      FRESH rendezvous directory (stale
///                                      port files of a dead team must never
///                                      be dialed), at most --max-respawns
///                                      times.  `--inject ...` is stripped
///                                      from respawned commands so a planned
///                                      fault does not re-fire.
///   - any other nonzero exit        -> fatal: kill the team and propagate
///                                      that exact exit code (a bad flag or
///                                      unknown case must fail CI, not loop).
///
/// The respawned team re-forms on the surviving layout's checkpoint state:
/// `--resume` makes the guarded runner restore the newest CRC-valid manifest
/// entry, so the campaign continues bitwise from the last durable save.

#if defined(__unix__) || defined(__APPLE__)

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "launch_verdict.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: igr_launch --world N [--dir DIR] [--max-respawns K]\n"
               "                  [--report FILE] -- COMMAND [ARGS...]\n"
               "  Spawns N processes of COMMAND with tcp-transport flags\n"
               "  appended; respawns the team (with --resume, --inject\n"
               "  stripped) on a retryable loss (exit 75 or signal death).\n"
               "  --report writes a machine-readable JSON exit report\n"
               "  (attempts, per-attempt loss reason, respawns, final exit);\n"
               "  if COMMAND carries --trace FILE, supervisor lifecycle\n"
               "  events (spawn, loss, respawn) are appended to that trace.\n");
  std::exit(code);
}

struct Child {
  pid_t pid = -1;
  int rank = -1;
};

using igr::launch::Attempt;
using igr::launch::Death;

void kill_team(std::vector<Child>& team) {
  for (auto& c : team)
    if (c.pid > 0) ::kill(c.pid, SIGKILL);
  for (auto& c : team) {
    if (c.pid <= 0) continue;
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    c.pid = -1;
  }
}

pid_t spawn(const std::vector<std::string>& argv_s) {
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (const auto& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "igr_launch: exec %s failed: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

/// Run one full-team attempt; blocks until every rank is reaped.  The first
/// failed rank ends the attempt: the ranks that have already exited are
/// drained, the rest of the team is killed — a survivor blocked in a halo
/// wait on the dead peer would otherwise hold the attempt open until its
/// own timeout — and attempt_verdict picks the cause among the drained
/// deaths.  The launcher's own SIGKILLs never count.
Attempt run_attempt(const std::vector<std::string>& base_cmd, int world,
                    const std::string& dir) {
  std::vector<Child> team;
  team.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    std::vector<std::string> cmd = base_cmd;
    cmd.insert(cmd.end(),
               {"--transport", "tcp", "--tp-rank", std::to_string(r),
                "--tp-world", std::to_string(world), "--tp-dir", dir});
    const pid_t pid = spawn(cmd);
    if (pid < 0) {
      Attempt a;
      a.fatal_code = 1;
      a.why = "fork failed: " + std::string(std::strerror(errno));
      kill_team(team);
      return a;
    }
    team.push_back({pid, r});
  }

  std::vector<Death> deaths;
  int live = world;
  // Record a reaped pid of the team; false if it is not ours.
  auto record = [&](pid_t pid, int status) {
    for (auto& c : team) {
      if (c.pid != pid) continue;
      c.pid = -1;
      --live;
      deaths.push_back({c.rank, status});
      return true;
    }
    return false;
  };
  bool failed = false;
  while (live > 0 && !failed) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      Attempt a;
      a.fatal_code = 1;
      a.why = "waitpid failed: " + std::string(std::strerror(errno));
      kill_team(team);
      return a;
    }
    if (!record(pid, status)) continue;  // not ours (shouldn't happen)
    failed = !(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  if (failed) {
    for (auto& c : team) {
      if (c.pid <= 0) continue;
      int status = 0;
      pid_t got;
      while ((got = ::waitpid(c.pid, &status, WNOHANG)) < 0 &&
             errno == EINTR) {
      }
      if (got == c.pid) record(got, status);
    }
  }
  kill_team(team);
  Attempt a = igr::launch::attempt_verdict(deaths);
  a.ok = !a.retryable && a.fatal_code == 0 && live == 0;
  return a;
}

/// Drop `--inject <spec>` from a respawned command: the planned fault
/// already fired (that is why we are respawning) and must not re-fire.
std::vector<std::string> strip_inject(const std::vector<std::string>& cmd) {
  std::vector<std::string> out;
  out.reserve(cmd.size());
  for (std::size_t i = 0; i < cmd.size(); ++i) {
    if (cmd[i] == "--inject") {
      ++i;  // skip the spec too
      continue;
    }
    out.push_back(cmd[i]);
  }
  return out;
}

bool has_flag(const std::vector<std::string>& cmd, const char* flag) {
  for (const auto& a : cmd)
    if (a == flag) return true;
  return false;
}

/// Value of `--trace FILE` in the child command, if any — the launcher
/// appends its lifecycle events to the team's merged trace.
std::string trace_path_of(const std::vector<std::string>& cmd) {
  for (std::size_t i = 0; i + 1 < cmd.size(); ++i)
    if (cmd[i] == "--trace") return cmd[i + 1];
  return {};
}

/// One team attempt, with the supervisor-side wall clock around it.
struct AttemptLog {
  Attempt a;
  double t0_us = 0.0;  ///< system_clock µs at spawn (Chrome `ts` unit).
  double t1_us = 0.0;  ///< system_clock µs at verdict.
};

double wall_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The machine-readable exit report (`--report FILE`), written on every
/// exit path including usage of the respawn budget.
void write_report(const std::string& path, int world, int max_respawns,
                  const std::vector<AttemptLog>& attempts, int final_exit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "igr_launch: cannot open report %s\n", path.c_str());
    return;
  }
  namespace tel = igr::common::telemetry;
  std::fprintf(f,
               "{\n  \"world\": %d, \"max_respawns\": %d, \"respawns\": %d,\n"
               "  \"final_exit\": %d,\n  \"attempts\": [\n",
               world, max_respawns,
               static_cast<int>(attempts.empty() ? 0 : attempts.size() - 1),
               final_exit);
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const Attempt& a = attempts[i].a;
    std::fprintf(f,
                 "    {\"attempt\": %zu, \"ok\": %s, \"retryable\": %s, "
                 "\"fatal_code\": %d, \"why\": \"%s\"}%s\n",
                 i, a.ok ? "true" : "false", a.retryable ? "true" : "false",
                 a.fatal_code, tel::json_escape(a.why).c_str(),
                 i + 1 == attempts.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Append supervisor lifecycle events to the team's Chrome trace: one "X"
/// span per attempt plus "i" instants for each loss/respawn, on a pid row
/// one past the last rank.  The trace is a bare JSON array, so appending is
/// a rewrite of the trailing `]`; when the file is missing or empty (e.g.
/// every attempt died before the export), a fresh array is created so the
/// supervisor's view of the failed campaign still loads.
void append_trace_events(const std::string& path, int world,
                         const std::vector<AttemptLog>& attempts) {
  namespace tel = igr::common::telemetry;
  std::string events;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                "\"tid\": 0, \"args\": {\"name\": \"igr_launch\"}}",
                world);
  events += buf;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const AttemptLog& al = attempts[i];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"attempt %zu\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f}",
                  i, world, al.t0_us, al.t1_us - al.t0_us);
    events += buf;
    const char* verdict = al.a.ok ? "team ok"
                          : al.a.retryable
                              ? (i + 1 < attempts.size() ? "respawn" : "loss")
                              : "fatal";
    events += ",\n{\"name\": \"" + std::string(verdict) +
              "\", \"ph\": \"i\", \"s\": \"p\", \"pid\": " +
              std::to_string(world) + ", \"tid\": 0, \"ts\": " +
              std::to_string(al.t1_us) + ", \"args\": {\"why\": \"" +
              tel::json_escape(al.a.why) + "\"}}";
  }

  // Read whatever the team managed to export.
  std::string body;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
      body.append(chunk, n);
    std::fclose(f);
  }
  const auto last = body.find_last_of(']');
  if (last == std::string::npos) {
    body = "[\n" + events + "]\n";  // no export happened: fresh array
  } else {
    const bool empty_array = body.find_first_of('{') == std::string::npos;
    body = body.substr(0, last) + (empty_array ? "" : ",\n") + events + "]\n";
  }
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "igr_launch: cannot rewrite trace %s\n",
                 path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  namespace ccli = igr::common::cli;
  int world = 0;
  int max_respawns = 2;
  std::string base_dir;
  std::string report_path;
  std::vector<std::string> cmd;

  ccli::Args args("igr_launch", argc, argv);
  while (args.next()) {
    if (args.is("--world")) {
      world = args.int_value(1, 4096);
    } else if (args.is("--dir")) {
      base_dir = args.value();
    } else if (args.is("--max-respawns")) {
      max_respawns = args.int_value(0, 1000);
    } else if (args.is("--report")) {
      report_path = args.value();
    } else if (args.is("--")) {
      while (args.next()) cmd.emplace_back(args.flag());
      break;
    } else {
      usage(args.is("--help") ? 0 : 2);
    }
  }
  if (world < 1 || cmd.empty()) usage(2);

  if (base_dir.empty()) {
    char tmpl[] = "/tmp/igr_launch.XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    if (!d) {
      std::fprintf(stderr, "igr_launch: mkdtemp failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    base_dir = d;
  } else {
    ::mkdir(base_dir.c_str(), 0777);  // best-effort; may already exist
  }

  const std::string trace_path = trace_path_of(cmd);
  std::vector<AttemptLog> attempts;
  const auto finish = [&](int code) {
    if (!report_path.empty())
      write_report(report_path, world, max_respawns, attempts, code);
    if (!trace_path.empty())
      append_trace_events(trace_path, world, attempts);
    return code;
  };

  for (int attempt = 0; attempt <= max_respawns; ++attempt) {
    // A fresh rendezvous directory per attempt: a killed team's stale port
    // files must never be dialed by its replacement.
    const std::string dir = base_dir + "/a" + std::to_string(attempt);
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "igr_launch: mkdir %s failed: %s\n", dir.c_str(),
                   std::strerror(errno));
      return finish(1);
    }

    std::vector<std::string> attempt_cmd = cmd;
    if (attempt > 0) {
      attempt_cmd = strip_inject(attempt_cmd);
      if (!has_flag(attempt_cmd, "--resume"))
        attempt_cmd.emplace_back("--resume");
    }

    std::fprintf(stderr, "igr_launch: attempt %d/%d, %d rank(s), dir %s\n",
                 attempt + 1, max_respawns + 1, world, dir.c_str());
    AttemptLog al;
    al.t0_us = wall_us();
    al.a = run_attempt(attempt_cmd, world, dir);
    al.t1_us = wall_us();
    attempts.push_back(al);
    const Attempt& a = attempts.back().a;
    if (a.ok) return finish(0);
    if (a.fatal_code != 0) {
      std::fprintf(stderr, "igr_launch: fatal: %s\n", a.why.c_str());
      return finish(a.fatal_code);
    }
    std::fprintf(stderr, "igr_launch: %s\n", a.why.c_str());
    if (attempt == max_respawns) {
      std::fprintf(stderr,
                   "igr_launch: respawn budget (%d) exhausted, giving up\n",
                   max_respawns);
      return finish(1);
    }
    std::fprintf(stderr, "igr_launch: respawning with --resume\n");
  }
  return finish(1);
}

#else  // !unix

#include <cstdio>

int main() {
  std::fprintf(stderr,
               "igr_launch: multi-process transport requires a POSIX "
               "platform\n");
  return 1;
}

#endif

/// True multi-process transport tests: fork/exec the real `igr_launch` and
/// `run_case` binaries (located via the IGR_BUILD_DIR compile definition) so
/// every rank is a genuinely separate OS process over loopback sockets —
/// including a SIGKILLed rank mid-run and the launcher's respawn-with-resume
/// recovery.  tests/test_transport.cpp covers the same fabric with
/// sanitizer-visible in-process endpoints; this suite is the
/// process-isolation truth test.

#if defined(__unix__) || defined(__APPLE__)

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "../examples/launch_verdict.hpp"

namespace {

namespace fs = std::filesystem;

#ifndef IGR_BUILD_DIR
#error "test_net needs -DIGR_BUILD_DIR=\"<build dir>\" (see CMakeLists.txt)"
#endif

std::string bin(const char* name) {
  return std::string(IGR_BUILD_DIR) + "/" + name;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / ("igr_net_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// Run a shell command, return its exit code (-1: abnormal termination).
/// Output goes to a log file so a failure's transcript is inspectable.
int run_cmd(const std::string& cmd, const fs::path& log) {
  const std::string full = cmd + " >> '" + log.string() + "' 2>&1";
  const int status = std::system(full.c_str());
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Pull a `"key": "0x..."` hex fingerprint out of a run_case --json file.
std::uint64_t json_fnv(const fs::path& json, const std::string& key) {
  const std::string text = slurp(json);
  const std::string needle = "\"" + key + "\": \"0x";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) {
    ADD_FAILURE() << key << " not found in " << json << ":\n" << text;
    return 0;
  }
  return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 16);
}

/// The common workload: decomposed Sod over 2 ranks, small but long enough
/// to cross several checkpoint cadences.
std::string sod_cmd(const std::string& run_case, int steps) {
  return run_case +
         " --case sod-x --ranks 2,1,1 --n 16 --steps " + std::to_string(steps);
}

TEST(NetLaunch, LauncherTeamMatchesInProcessBitwise) {
  const auto dir = scratch_dir("bitwise");
  const auto log = dir / "log.txt";

  const auto ref_json = dir / "ref.json";
  ASSERT_EQ(run_cmd(sod_cmd(bin("run_case"), 12) + " --json " +
                        ref_json.string(),
                    log),
            0)
      << slurp(log);

  const auto tcp_json = dir / "tcp.json";
  const std::string launch = bin("igr_launch") + " --world 2 --dir " +
                             (dir / "rdv").string() + " -- " +
                             sod_cmd(bin("run_case"), 12) + " --json " +
                             tcp_json.string();
  ASSERT_EQ(run_cmd(launch, log), 0) << slurp(log);

  // Bitwise across the process boundary: final state AND the whole dt
  // trajectory (each step's dt is an allreduce over the socket fabric).
  EXPECT_EQ(json_fnv(tcp_json, "state_fnv"), json_fnv(ref_json, "state_fnv"));
  EXPECT_EQ(json_fnv(tcp_json, "dt_fnv"), json_fnv(ref_json, "dt_fnv"));
  fs::remove_all(dir);
}

TEST(NetLaunch, SigkilledRankRecoversToTheGoldenFingerprint) {
  const auto dir = scratch_dir("kill");
  const auto log = dir / "log.txt";

  const auto ref_json = dir / "ref.json";
  ASSERT_EQ(run_cmd(sod_cmd(bin("run_case"), 20) + " --json " +
                        ref_json.string(),
                    log),
            0)
      << slurp(log);

  // Rank 1 SIGKILLs itself before step 10; rank 0 must detect the loss,
  // exit 75, and the launcher must respawn the team with --resume so the
  // run restores the newest checkpoint and completes — landing on exactly
  // the bits of the uninterrupted run.  (dt_fnv is not compared: the
  // respawned process hashes only its post-resume steps by design.)
  const auto kill_json = dir / "kill.json";
  const auto report = dir / "report.json";
  const std::string launch =
      bin("igr_launch") + " --world 2 --report " + report.string() +
      " --dir " + (dir / "rdv").string() +
      " -- " + sod_cmd(bin("run_case"), 20) + " --checkpoint-every 4" +
      " --ckpt-dir " + (dir / "ckpt").string() +
      " --inject kill=10@1 --json " + kill_json.string();
  ASSERT_EQ(run_cmd(launch, log), 0) << slurp(log);

  EXPECT_EQ(json_fnv(kill_json, "state_fnv"), json_fnv(ref_json, "state_fnv"));

  // The supervisor's transcript shows one real loss and one respawn.
  const std::string text = slurp(log);
  EXPECT_NE(text.find("respawning with --resume"), std::string::npos) << text;

  // The machine-readable exit report round-trips the recovery: one respawn,
  // a first attempt lost to SIGKILL (signal 9), and a clean final exit.
  const std::string rep = slurp(report);
  EXPECT_NE(rep.find("\"respawns\": 1"), std::string::npos) << rep;
  EXPECT_NE(rep.find("\"final_exit\": 0"), std::string::npos) << rep;
  EXPECT_NE(rep.find("killed by signal 9"), std::string::npos) << rep;
  EXPECT_NE(rep.find("\"retryable\": true"), std::string::npos) << rep;
  EXPECT_NE(rep.find("\"ok\": true"), std::string::npos) << rep;
  fs::remove_all(dir);
}

TEST(NetLaunch, VerdictRanksASignalAboveAnEarlierExit75) {
  // Real wait statuses, from shells that exit or SIGKILL themselves.
  const int exit0 = std::system("exit 0");
  const int exit2 = std::system("exit 2");
  const int exit75 = std::system("exit 75");
  const int killed = std::system("kill -9 $$");
  ASSERT_TRUE(WIFEXITED(exit75) && WEXITSTATUS(exit75) == 75);
  ASSERT_TRUE(WIFSIGNALED(killed) && WTERMSIG(killed) == 9);
  using igr::launch::attempt_verdict;

  // Rank 0 lost its peer and exited 75; that exit was reaped before rank
  // 1's SIGKILL, which is still the cause.
  const auto a = attempt_verdict({{0, exit75}, {1, killed}});
  EXPECT_EQ(a.why, "rank 1 killed by signal 9");
  EXPECT_TRUE(a.retryable);
  EXPECT_EQ(a.fatal_code, 0);

  // Exit 75 outranks another non-zero exit reaped before it.
  const auto b = attempt_verdict({{0, exit0}, {1, exit2}, {2, exit75}});
  EXPECT_EQ(b.why, "rank 2 exited 75 (retryable)");
  EXPECT_TRUE(b.retryable);
  EXPECT_EQ(b.fatal_code, 0);

  // With no retryable death the first other non-zero exit is fatal.
  const auto c = attempt_verdict({{1, exit0}, {0, exit2}});
  EXPECT_EQ(c.why, "rank 0 exited 2");
  EXPECT_FALSE(c.retryable);
  EXPECT_EQ(c.fatal_code, 2);

  EXPECT_TRUE(attempt_verdict({{0, exit0}}).why.empty());
}

TEST(NetLaunch, ExhaustedRespawnBudgetFailsCleanly) {
  const auto dir = scratch_dir("budget");
  const auto log = dir / "log.txt";

  // No respawns allowed: the planned kill must surface as a clean nonzero
  // launcher exit (not a hang waiting on the dead rank).
  const std::string launch =
      bin("igr_launch") + " --world 2 --max-respawns 0 --dir " +
      (dir / "rdv").string() + " -- " + sod_cmd(bin("run_case"), 20) +
      " --checkpoint-every 4 --ckpt-dir " + (dir / "ckpt").string() +
      " --inject kill=6@1";
  EXPECT_EQ(run_cmd(launch, log), 1) << slurp(log);
  const std::string text = slurp(log);
  EXPECT_NE(text.find("respawn budget (0) exhausted"), std::string::npos)
      << text;
  fs::remove_all(dir);
}

TEST(NetLaunch, FatalRankExitCodePropagatesUnchanged) {
  const auto dir = scratch_dir("fatal");
  const auto log = dir / "log.txt";

  // An unknown case is a configuration error (exit 2), not a transient
  // loss: the launcher must not burn respawns on it and must exit 2 itself.
  const std::string launch = bin("igr_launch") + " --world 2 --dir " +
                             (dir / "rdv").string() + " -- " +
                             bin("run_case") +
                             " --case no-such-case --ranks 2,1,1 --steps 4";
  EXPECT_EQ(run_cmd(launch, log), 2) << slurp(log);
  const std::string text = slurp(log);
  EXPECT_NE(text.find("fatal"), std::string::npos) << text;
  fs::remove_all(dir);
}

}  // namespace

#endif  // unix

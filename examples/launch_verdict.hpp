#pragma once
/// \file launch_verdict.hpp
/// The verdict of one igr_launch team attempt, chosen from the rank deaths
/// the launcher reaped before it killed the survivors.  Header-only so
/// tests/test_net.cpp can pin the ranking without spawning a team.

#include <sys/wait.h>

#include <string>
#include <vector>

namespace igr::launch {

/// One reaped rank: its rank and its raw waitpid status.
struct Death {
  int rank = -1;
  int status = 0;
};

/// Outcome of one team attempt.
struct Attempt {
  bool ok = false;         ///< Every rank exited 0.
  bool retryable = false;  ///< The cause was exit 75 or a signal death.
  int fatal_code = 0;      ///< The cause's non-retryable exit (0: none).
  std::string why;         ///< Human-readable cause.
};

/// The cause of a failed attempt among `deaths` (in reap order; exit-0
/// deaths are ignored): a signal death, else an exit 75, else any other
/// non-zero exit, the earliest reaped on a tie.  Ranking rather than taking
/// the first reaped matters because a rank that loses its peer exits 75,
/// and under load that exit can be reaped before the peer's own SIGKILL.
/// `ok` is left to the caller, which knows whether every rank was reaped.
inline Attempt attempt_verdict(const std::vector<Death>& deaths) {
  Attempt a;
  int best = 0;  // 3: signal, 2: exit 75, 1: other non-zero exit
  for (const Death& d : deaths) {
    const int code = WIFEXITED(d.status) ? WEXITSTATUS(d.status) : 1;
    const int rank = WIFSIGNALED(d.status) ? 3
                     : code == 75          ? 2
                     : code != 0           ? 1
                                           : 0;
    if (rank <= best) continue;
    best = rank;
    const std::string who = "rank " + std::to_string(d.rank);
    a.retryable = rank >= 2;
    a.fatal_code = rank == 1 ? code : 0;
    a.why = rank == 3 ? who + " killed by signal " +
                            std::to_string(WTERMSIG(d.status))
            : rank == 2 ? who + " exited 75 (retryable)"
                        : who + " exited " + std::to_string(code);
  }
  return a;
}

}  // namespace igr::launch

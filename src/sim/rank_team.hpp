#pragma once
/// \file rank_team.hpp
/// One persistent worker thread per simulated rank.
///
/// The distributed driver executes a step as a sequence of *phases*; each
/// phase runs the same closure once per rank, concurrently, and completes
/// only when every rank has finished (a barrier) — the in-process analogue
/// of an MPI program's SPMD structure.  Inside a phase ranks synchronize
/// pairwise through sim::Comm's posted-epoch halo pipeline, so a phase can
/// exchange halos and then compute on them without a barrier in between.
///
/// Workers pin their OpenMP team size on startup so R ranks x T threads
/// never oversubscribe the machine (scaling benches run T = 1 to measure
/// rank parallelism alone).

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace igr::sim {

class RankTeam {
 public:
  /// Spawn `ranks` workers.  `threads_per_rank` caps each worker's OpenMP
  /// team; 0 divides the hardware evenly (at least 1).
  /// `hardware_share_ranks` is the number of ranks sharing this machine
  /// for that division — a multi-process team runs one local rank but must
  /// still split the cores across the whole team (0: same as `ranks`, the
  /// in-process case).
  explicit RankTeam(int ranks, int threads_per_rank = 0,
                    int hardware_share_ranks = 0);
  ~RankTeam();

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  /// Execute `fn(rank)` for every rank and wait for all of them (phase
  /// barrier), each rank on its worker.  The first exception thrown by any
  /// rank is rethrown here after the phase completes.
  void run(const std::function<void(int)>& fn);

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] int threads_per_rank() const { return threads_per_rank_; }

 private:
  void worker_main(int rank);

  int ranks_ = 1;
  int threads_per_rank_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* fn_ = nullptr;  // valid while a phase runs
  std::uint64_t generation_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace igr::sim

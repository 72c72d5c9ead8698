#include "sim/rank_team.hpp"

#include <algorithm>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace igr::sim {

RankTeam::RankTeam(int ranks, int threads_per_rank, int hardware_share_ranks)
    : ranks_(ranks) {
  if (ranks < 1) throw std::invalid_argument("RankTeam: ranks must be >= 1");
  if (threads_per_rank < 0)
    throw std::invalid_argument("RankTeam: threads_per_rank must be >= 0");
  if (hardware_share_ranks < ranks) hardware_share_ranks = ranks;
  if (threads_per_rank == 0) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    threads_per_rank_ =
        std::max(1, static_cast<int>(hw) / hardware_share_ranks);
  } else {
    threads_per_rank_ = threads_per_rank;
  }
  workers_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    workers_.emplace_back([this, r] { worker_main(r); });
  }
}

RankTeam::~RankTeam() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void RankTeam::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lk(mu_);
  fn_ = &fn;
  done_ = 0;
  error_ = nullptr;
  ++generation_;
  cv_start_.notify_all();
  cv_done_.wait(lk, [this] { return done_ == ranks_; });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void RankTeam::worker_main(int rank) {
#ifdef _OPENMP
  // Each worker is its own OpenMP initial thread; cap its team so the rank
  // count times the per-rank team never oversubscribes the machine.
  omp_set_num_threads(threads_per_rank_);
#endif
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::function<void(int)>* fn = fn_;
    lk.unlock();

    std::exception_ptr err;
    try {
      (*fn)(rank);
    } catch (...) {
      err = std::current_exception();
    }

    lk.lock();
    if (err && !error_) error_ = err;
    if (++done_ == ranks_) cv_done_.notify_one();
  }
}

}  // namespace igr::sim

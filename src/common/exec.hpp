#pragma once
/// \file exec.hpp
/// Execution spaces: *where* a kernel body runs, decoupled from *what* it
/// computes.
///
/// Every parallel kernel in the solver is either a pure per-element map
/// with disjoint writes, or a parity-phased in-place update whose phases
/// are barrier-ordered (the two parity phases of a red–black colour
/// pass), and every reduction is an exact max/min — so neither the
/// team width nor the partition of work across it can change a single bit
/// of the result.  That invariance is what lets one kernel body target
/// every backend here and stay bitwise-identical across them
/// (test-enforced: Serial vs OpenMP vs 1/2/4-thread teams, state and dt).
///
/// Backends:
///   - kSerial: a one-member team on the calling thread.  The reference
///     schedule; bitwise equal to every other backend by the argument
///     above.
///   - kOpenMP: a parallel team.  Under an OpenMP toolchain this is an
///     `omp parallel` region of the requested width (width 0 = the
///     ambient OpenMP team — exactly the historical bare
///     `#pragma omp parallel` behavior, so default-constructed ExecSpace
///     reproduces the pre-ExecSpace schedule).  Without an OpenMP
///     runtime, an explicit width > 1 runs on a std::thread team (the
///     TSan tree builds with OpenMP off, and this keeps its race check of
///     the kernels genuinely multithreaded), and width 0 degrades to
///     serial (matching what the old no-op pragmas did there).
///
/// A device backend (std::par / SYCL / CUDA) slots in as another
/// enumerator: kernel bodies only ever see a Team (tid / size / barrier)
/// and their own per-member scratch, never a #pragma.

#include <algorithm>
#include <barrier>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace igr::common {

enum class ExecBackend : int {
  kSerial = 0,  ///< one-member team (the bitwise reference schedule)
  kOpenMP = 1,  ///< OpenMP team; std::thread team without an OpenMP runtime
};

class ExecSpace {
 public:
  /// A member of a running team: identity plus the in-team barrier.
  class Team {
   public:
    [[nodiscard]] int tid() const { return tid_; }
    [[nodiscard]] int size() const { return size_; }

    /// Block until every member of this launch arrives — the phase
    /// ordering primitive (e.g. between the two parity phases of a red–black
    /// colour pass).  Must be reached by all members or by none.
    void barrier() const {
      if (bar_ != nullptr) {
        bar_->arrive_and_wait();
        return;
      }
#ifdef _OPENMP
      // Binds to the innermost enclosing parallel region (a no-op for a
      // one-member team outside any region).
#pragma omp barrier
#endif
    }

    /// Contiguous chunk [b, e) of [0, n) owned by this member: the static
    /// partition every kernel here uses, remainder items to the low tids.
    /// (Any partition would produce the same bits; this one keeps each
    /// member's planes/rows contiguous for the rolling caches.)
    void chunk(long n, long& b, long& e) const {
      ExecSpace::chunk(n, tid_, size_, b, e);
    }

   private:
    friend class ExecSpace;
    Team(int tid, int size, std::barrier<>* bar)
        : tid_(tid), size_(size), bar_(bar) {}
    int tid_;
    int size_;
    std::barrier<>* bar_;
  };

  /// Default: the ambient OpenMP team — the historical schedule.
  constexpr ExecSpace() = default;
  constexpr ExecSpace(ExecBackend backend, int threads)
      : backend_(backend), threads_(threads < 0 ? 0 : threads) {}
  [[nodiscard]] static constexpr ExecSpace serial() {
    return {ExecBackend::kSerial, 1};
  }

  [[nodiscard]] constexpr ExecBackend backend() const { return backend_; }
  /// Requested team width; 0 = ambient (the configured OpenMP team size
  /// under an OpenMP runtime, one member otherwise).
  [[nodiscard]] constexpr int threads() const { return threads_; }

  /// Launch one team over `body(const Team&)`.  Each member runs the whole
  /// body; the body partitions work via Team::chunk (or runs per-member
  /// setup, e.g. scratch rows, before its chunk loop).  Joins all members
  /// before returning.
  template <class F>
  void run_team(F&& body) const {
    if (backend_ == ExecBackend::kSerial) {
      run_serial(body);
      return;
    }
#ifdef _OPENMP
    if (threads_ > 0) {
#pragma omp parallel num_threads(threads_)
      {
        Team t(omp_get_thread_num(), omp_get_num_threads(), nullptr);
        body(static_cast<const Team&>(t));
      }
    } else {
#pragma omp parallel
      {
        Team t(omp_get_thread_num(), omp_get_num_threads(), nullptr);
        body(static_cast<const Team&>(t));
      }
    }
#else
    if (threads_ > 1) {
      run_thread_team(body);
    } else {
      run_serial(body);
    }
#endif
  }

  /// Flat parallel map: body(i) for i in [0, n), statically partitioned
  /// across the team.  The `#pragma omp parallel for` replacement for
  /// bodies with no per-member scratch.
  template <class F>
  void for_each(long n, F&& body) const {
    if (n <= 0) return;
    run_team([&](const Team& t) {
      long b, e;
      t.chunk(n, b, e);
      for (long i = b; i < e; ++i) body(i);
    });
  }

  /// The static contiguous partition used everywhere: chunk `tid` of n
  /// items over nth members is [base*tid + min(tid, rem), +base(+1)) with
  /// base = n/nth, rem = n%nth.
  static void chunk(long n, int tid, int nth, long& b, long& e) {
    const long base = n / nth;
    const long rem = n % nth;
    b = base * tid + std::min<long>(tid, rem);
    e = b + base + (tid < rem ? 1 : 0);
  }

 private:
  template <class F>
  void run_serial(F&& body) const {
    Team t(0, 1, nullptr);
    body(static_cast<const Team&>(t));
  }

#ifndef _OPENMP
  /// Portable team for OpenMP-less builds (sanitizer trees): threads_-1
  /// spawned members plus the caller.  A member that throws drops out of
  /// the barrier (arrive_and_drop) so the others cannot deadlock on it;
  /// the first exception is rethrown after the join.
  template <class F>
  void run_thread_team(F&& body) const {
    const int nth = threads_;
    std::barrier<> bar(nth);
    std::mutex err_mutex;
    std::exception_ptr err;
    auto member = [&](int tid) {
      try {
        Team t(tid, nth, &bar);
        body(static_cast<const Team&>(t));
      } catch (...) {
        {
          std::lock_guard<std::mutex> g(err_mutex);
          if (!err) err = std::current_exception();
        }
        bar.arrive_and_drop();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nth - 1));
    for (int t = 1; t < nth; ++t) pool.emplace_back(member, t);
    member(0);
    for (auto& th : pool) th.join();
    if (err) std::rethrow_exception(err);
  }
#endif

  ExecBackend backend_ = ExecBackend::kOpenMP;
  int threads_ = 0;
};

}  // namespace igr::common

#pragma once
/// \file timer.hpp
/// The per-phase step profile.  The paper's primary single-device metric,
/// "grind time" — nanoseconds per grid cell per time step (§7.1) — is
/// metered once per step by app::Simulation (StepMeters).

#include <array>
#include <chrono>
#include <cstddef>
#include <string>

namespace igr::common {

/// Wall-time breakdown of a solver step by RHS phase, so PERF.md tables can
/// attribute a grind-time change to the phase that moved.  Sampling is off
/// by default (SolverConfig::phase_timing turns it on; the bench harness
/// does) — when disabled a PhaseScope is a pair of branch-predicted loads,
/// so production steps pay nothing.  The streamed flux/RK stage attributes
/// each k-block to the phase its work belongs to (flux, or rk_dt for the
/// trailing update).
class PhaseProfile {
 public:
  enum Phase : int {
    kBc = 0,       ///< Physical-boundary ghost fills of the state.
    kSigmaSource,  ///< Reciprocal density + Sigma-equation source build.
    kSigmaSweeps,  ///< Relaxation sweeps incl. their Sigma ghost fills.
    kFlux,         ///< The three dimensional flux sweeps.
    kRkDt,         ///< RK convex update + the CFL reduction for dt.
    kNumPhases
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void add(Phase p, double sec) { acc_[static_cast<std::size_t>(p)] += sec; }
  [[nodiscard]] double seconds(Phase p) const {
    return acc_[static_cast<std::size_t>(p)];
  }
  /// Short machine-readable phase name (stable; used as the bench JSON key).
  [[nodiscard]] static const char* name(Phase p);

 private:
  bool enabled_ = false;
  std::array<double, kNumPhases> acc_{};
};

/// RAII sampler: adds the scope's wall time to one profile phase.
class PhaseScope {
 public:
  PhaseScope(PhaseProfile& profile, PhaseProfile::Phase phase)
      : profile_(profile), phase_(phase) {
    if (profile_.enabled()) t0_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() {
    if (profile_.enabled()) {
      profile_.add(phase_, std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0_)
                               .count());
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfile& profile_;
  PhaseProfile::Phase phase_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace igr::common

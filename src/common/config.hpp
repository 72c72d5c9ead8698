#pragma once
/// \file config.hpp
/// Physical and numerical parameters shared by all solvers.

#include <stdexcept>
#include <string>

#include "common/exec.hpp"

namespace igr::common {

/// Fluid and scheme parameters.  Defaults model the paper's air-like working
/// gas; viscosities default to zero (inviscid core problem), the jet studies
/// enable them.
struct SolverConfig {
  // --- Fluid (ideal gas law, eq. 4) ---
  double gamma = 1.4;    ///< Ratio of specific heats.
  double mu = 0.0;       ///< Shear viscosity (eq. 5).
  double zeta = 0.0;     ///< Bulk viscosity (eq. 5).

  // --- IGR (eq. 9) ---
  /// alpha = alpha_factor * dx^2 (the paper: alpha ∝ Δx²; width of the
  /// smoothly expanded shock in cells ~ sqrt(alpha_factor)).
  double alpha_factor = 5.0;
  int sigma_sweeps = 5;      ///< ≤5 Jacobi/Gauss–Seidel sweeps per flux (§5.2).
  bool sigma_gauss_seidel = true;  ///< Gauss–Seidel (true) or Jacobi (false).

  // --- Time integration ---
  double cfl = 0.4;          ///< Advective CFL number for SSP-RK3.

  // --- Diagnostics ---
  /// Record the per-phase wall-time breakdown (common::PhaseProfile).  Off
  /// by default; the bench harness enables it for its JSON report.
  bool phase_timing = false;

  // --- Execution space (where the kernel bodies run) ---
  /// Backend for every parallel kernel body (flux row sweeps, relax rows,
  /// Sigma source, RK update, CFL fold).  All kernels are partition-
  /// invariant by construction — disjoint writes or parity-phased updates,
  /// exact max/min reductions — so this is purely a scheduling choice:
  /// results (state *and* dt) are bitwise-identical across backends and
  /// team widths (test-enforced).  The default reproduces the historical
  /// ambient-OpenMP schedule exactly.
  ExecBackend exec_backend = ExecBackend::kOpenMP;
  /// Team width for the kOpenMP backend; 0 = ambient (the configured
  /// OpenMP team size, or one member without an OpenMP runtime).  The
  /// distributed driver gives every rank this width, and with 0 divides
  /// the hardware evenly across its rank workers; scaling benches pin it
  /// to 1 so speedup measures rank parallelism alone.  Ignored by
  /// kSerial.
  int exec_threads = 0;
  /// The execution space the two fields above select.
  [[nodiscard]] ExecSpace exec() const {
    return ExecSpace(exec_backend, exec_threads);
  }

  // --- Robustness floors (0 disables) ---
  /// Optional positivity floors applied when converting reconstructed face
  /// states to primitives.  The production Mach-10 runs use small floors to
  /// guard the inflow start-up transient.
  double density_floor = 0.0;
  double pressure_floor = 0.0;

  /// Validate parameter ranges; throws std::invalid_argument on error.
  void validate() const;
};

}  // namespace igr::common

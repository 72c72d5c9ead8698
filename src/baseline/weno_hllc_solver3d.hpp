#pragma once
/// \file weno_hllc_solver3d.hpp
/// The paper's performance baseline (§6.2): an optimized 5th-order WENO
/// reconstruction + HLLC approximate Riemann solver, the state of the art
/// for shock-laden compressible flow.
///
/// Faithful to array-based production implementations (MFC), the baseline
/// stores full-field reconstructed face states and face fluxes for the
/// active sweep direction — the storage the IGR implementation eliminates by
/// kernel fusion (§5.4).  Its per-cell storage is therefore substantially
/// higher than IGR's 17 values; `memory_bytes()` reports the real footprint
/// and core/memory_footprint.hpp provides the paper-accounting comparison.
///
/// Per §4.3, WENO/HLLC involve poorly conditioned operations and are only
/// robust in FP64; FP32 is provided to demonstrate exactly that in tests.

#include <functional>

#include "common/config.hpp"
#include "common/field3.hpp"
#include "common/precision.hpp"
#include "common/timer.hpp"
#include "eos/ideal_gas.hpp"
#include "fv/bc.hpp"
#include "mesh/grid.hpp"

namespace igr::baseline {

/// Initial condition alias shared with the IGR solver.
using PrimFn = std::function<common::Prim<double>(double, double, double)>;

template <class Policy>
class WenoHllcSolver3D {
 public:
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;

  WenoHllcSolver3D(const mesh::Grid& grid, const common::SolverConfig& cfg,
                   fv::BcSpec bc);

  void init(const PrimFn& prim);

  double step();
  void step_fixed(double dt);
  void compute_rhs(common::StateField3<S>& q, common::StateField3<S>& rhs);

  [[nodiscard]] common::StateField3<S>& state() { return q_; }
  [[nodiscard]] const common::StateField3<S>& state() const { return q_; }
  [[nodiscard]] const mesh::Grid& grid() const { return grid_; }
  [[nodiscard]] double time() const { return time_; }
  /// Restore the simulated-time clock (checkpoint restart).
  void set_time(double t) { time_ = t; }

  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] double storage_per_cell() const;
  [[nodiscard]] common::Cons<double> conserved_totals() const;

 private:
  /// One dimensional sweep; `overwrite` folds the RHS zeroing into the
  /// first sweep's write-back.  Reconstruction is bound to WENO5 at compile
  /// time inside (the baseline has no scheme choice).
  void flux_sweep(common::StateField3<S>& q, common::StateField3<S>& rhs,
                  int dir, bool overwrite);

  mesh::Grid grid_;
  common::SolverConfig cfg_;
  fv::BcSpec bc_;
  eos::IdealGas eos_;
  double time_ = 0.0;

  common::StateField3<S> q_;
  common::StateField3<S> qstage_;
  common::StateField3<S> rhs_;
  // Array-based intermediates (face-indexed; +1 along the sweep direction).
  common::StateField3<S> face_l_, face_r_, face_flux_;
};

}  // namespace igr::baseline

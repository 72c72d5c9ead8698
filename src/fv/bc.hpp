#pragma once
/// \file bc.hpp
/// Boundary conditions on the ghost layers of a StateField3.
///
/// Supported kinds: periodic, outflow (zero-gradient extrapolation),
/// reflective slip wall, uniform Dirichlet (a whole face held at one
/// prescribed primitive state — shock-tube driver sections and planar
/// inflows), and Dirichlet inflow patches (how the paper models the rocket
/// engines: "We model them through inflow boundary conditions", Fig. 1
/// caption).  Inflow patches are circles on a face with a prescribed
/// primitive state; cells outside every patch fall back to the face's base
/// kind (typically reflective — the rocket base plate).

#include <array>
#include <vector>

#include "common/field3.hpp"
#include "common/state.hpp"
#include "eos/ideal_gas.hpp"
#include "mesh/decomp.hpp"
#include "mesh/grid.hpp"

namespace igr::fv {

enum class BcKind {
  kPeriodic,
  kOutflow,
  kReflective,
  kInflowPatches,
  /// Whole face held at one prescribed primitive state (BcSpec::dirichlet).
  /// A face marked kDirichlet without a prescribed state falls back to
  /// zero-gradient extrapolation (identical to kOutflow).
  kDirichlet,
};

/// Circular inflow patch on a z/y/x-face: engine nozzle exit.
struct InflowPatch {
  double cx = 0.0;    ///< Patch center, first tangential coordinate.
  double cy = 0.0;    ///< Patch center, second tangential coordinate.
  double radius = 0.1;
  common::Prim<double> state;  ///< Injected primitive state.
};

/// Per-face boundary specification.
struct BcSpec {
  std::array<BcKind, mesh::kNumFaces> kind{
      BcKind::kPeriodic, BcKind::kPeriodic, BcKind::kPeriodic,
      BcKind::kPeriodic, BcKind::kPeriodic, BcKind::kPeriodic};
  /// Patches per face (only consulted when kind == kInflowPatches).
  std::array<std::vector<InflowPatch>, mesh::kNumFaces> patches{};
  /// Per-face uniform Dirichlet state (only consulted when kind ==
  /// kDirichlet and the matching `dirichlet_set` flag is on; an unset
  /// Dirichlet face extrapolates zero-gradient instead).
  std::array<common::Prim<double>, mesh::kNumFaces> dirichlet{};
  std::array<bool, mesh::kNumFaces> dirichlet_set{};

  static BcSpec all_periodic() { return {}; }
  static BcSpec all_outflow() {
    BcSpec b;
    b.kind.fill(BcKind::kOutflow);
    return b;
  }

  /// Mark `f` as a uniform Dirichlet face holding primitive state `w`.
  void set_dirichlet(mesh::Face f, const common::Prim<double>& w) {
    const auto s = static_cast<std::size_t>(f);
    kind[s] = BcKind::kDirichlet;
    dirichlet[s] = w;
    dirichlet_set[s] = true;
  }

  [[nodiscard]] BcKind face_kind(mesh::Face f) const {
    return kind[static_cast<std::size_t>(f)];
  }

  /// Per axis, whether both of its faces are periodic: the axes a domain
  /// decomposition wraps across.
  [[nodiscard]] std::array<bool, 3> periodic_axes() const {
    std::array<bool, 3> p{};
    for (std::size_t a = 0; a < 3; ++a)
      p[a] = kind[2 * a] == BcKind::kPeriodic &&
             kind[2 * a + 1] == BcKind::kPeriodic;
    return p;
  }
};

/// Fill all ghost layers of `q` according to `spec`.  The grid supplies
/// physical coordinates for inflow-patch tests.  Implemented as a template
/// over storage type; instantiated for double, float, and half.
template <class T>
void apply_bc(common::StateField3<T>& q, const BcSpec& spec,
              const mesh::Grid& grid, const eos::IdealGas& eos);

/// Fill the ghost layers of one axis only, optionally restricted to one
/// side (`sides[0]` = low face, `sides[1]` = high face).  Distributed
/// drivers use this to fill *physical* faces while halo exchange covers
/// interior faces, interleaved per axis so corner ghosts match the
/// single-domain fill ordering.
template <class T>
void apply_bc_axis(common::StateField3<T>& q, const BcSpec& spec,
                   const mesh::Grid& grid, const eos::IdealGas& eos, int axis,
                   std::array<bool, 2> sides);

// Explicit instantiations live in bc.cpp.
}  // namespace igr::fv

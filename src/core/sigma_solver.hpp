#pragma once
/// \file sigma_solver.hpp
/// Solver for the entropic-pressure equation, paper eq. (9):
///
///   alpha * (tr((grad u)^2) + tr^2(grad u)) = Sigma/rho - alpha * div(grad(Sigma)/rho)
///
/// Because alpha ∝ dx^2, the discrete system is uniformly well-conditioned
/// and grid-point-local; warm-started Jacobi or Gauss–Seidel converges in
/// ≤ 5 sweeps per flux computation (§5.2).  The elliptic operator uses the
/// paper's 7-point stencil.  Its face coefficient is the arithmetic mean of
/// the two cells' *reciprocal* densities, 0.5*(1/rho_i + 1/rho_j) — i.e.
/// 1/rho_face with rho_face the harmonic mean of the cell densities.  That
/// is the intended discretization (not an arithmetic-mean face density):
/// it is division-free given the precomputed 1/rho field and keeps the
/// operator symmetric positive definite for rho > 0.
///
/// This file provides the Sigma ghost fills and two whole-block relaxation
/// kernels, one red–black colour pass and one Jacobi pass, with FP32
/// compute over 16-bit storage for the converting policies (§5.6).
/// IgrSolver3D composes them into sweeps.

#include <array>

#include "common/exec.hpp"
#include "common/field3.hpp"
#include "common/precision.hpp"

namespace igr::core {

/// Boundary handling for Sigma's ghost layers during sweeps/reconstruction.
enum class SigmaBc { kPeriodic, kNeumann };

/// Per-face Sigma ghost kinds, ordered like mesh::Face (xlo, xhi, ylo, yhi,
/// zlo, zhi; face index = 2*axis + side).  Mixed-BC cases wrap Sigma across
/// their periodic state faces and clamp (zero-gradient) everywhere else —
/// the per-face refinement of the historical one-global-SigmaBc scheme.
/// Implicitly constructible from a single SigmaBc so uniform-BC call sites
/// (and the existing test suite) read unchanged.
struct SigmaBcSpec {
  std::array<SigmaBc, 6> face{};

  SigmaBcSpec() : SigmaBcSpec(SigmaBc::kPeriodic) {}
  // NOLINTNEXTLINE(google-explicit-constructor): uniform broadcast is the
  // intended shorthand (`fill_sigma_ghosts(f, SigmaBc::kNeumann)`).
  SigmaBcSpec(SigmaBc uniform) { face.fill(uniform); }

  [[nodiscard]] SigmaBc side(int axis, int s) const {
    return face[static_cast<std::size_t>(2 * axis + s)];
  }
  friend bool operator==(const SigmaBcSpec& a, const SigmaBcSpec& b) {
    return a.face == b.face;
  }
};

/// Fill ghost layers of `sigma` (wrap for periodic, clamp for Neumann).
/// `layers` limits the fill depth: relaxation sweeps only consume one ghost
/// layer, while the final reconstruction needs all of them.
template <class S>
void fill_sigma_ghosts(common::Field3<S>& sigma, SigmaBcSpec bc,
                       int layers = -1);

/// Per-axis, side-maskable variant for distributed drivers (physical faces
/// only; interior faces come from halo exchange).
template <class S>
void fill_sigma_ghosts_axis(common::Field3<S>& sigma, SigmaBcSpec bc,
                            int axis, std::array<bool, 2> sides,
                            int layers = -1);

// --- The relaxation kernels ---
// A sweep is a ghost fill followed by both red–black colours
// (sigma_relax_planes with colour 0, then colour 1) or by one Jacobi pass
// (sigma_jacobi_planes, then the caller's buffer swap), each over the whole
// block.  These two kernels are the only relaxation loops, and
// IgrSolver3D::sigma_sweep is their one library caller: the single-domain solver
// and every decomposed rank run it, between ghost fills or halo exchanges.
// All fields of a call share one shape and ghost depth.  `inv_rho` is the
// reciprocal density (with ghosts).  Face coefficients are arithmetic means
// of 1/rho (equivalently, 1/rho_face with a harmonic-mean face density),
// which keeps the stencil free of divisions; the only division left is the
// diagonal solve, one per cell.  Arithmetic is at compute_t.  Identity
// storage reads the field rows in place; 16-bit storage converts each row's
// stencil through the batched conversion lanes, reusing the current plane's
// converted rows across adjacent rows.

/// One red–black half-pass over the whole block, in place: updates the
/// cells of parity (i+j+k) ≡ `color` (mod 2) using the current ghosts.  It
/// reads only the opposite parity plus src/inv_rho, so the result does not
/// depend on the order in which rows are relaxed (nor on the team width).
/// In-place two-colour Gauss–Seidel reaches the same fixed point as Jacobi
/// in fewer sweeps.
template <class Policy>
void sigma_relax_planes(common::Field3<typename Policy::storage_t>& sigma,
                        const common::Field3<typename Policy::storage_t>& src,
                        const common::Field3<typename Policy::storage_t>& inv_rho,
                        typename Policy::compute_t alpha,
                        typename Policy::compute_t dx,
                        typename Policy::compute_t dy,
                        typename Policy::compute_t dz, int color,
                        const common::ExecSpace& exec = {});

/// One Jacobi pass over the whole block: reads `in` (interior and one ghost
/// layer), writes the interior of `out`.  The caller owns the double-buffer
/// bookkeeping and swaps the fields after each pass.  Jacobi is
/// decomposition-exact (rank count cannot change the bits), at the cost of
/// one extra N-sized buffer — the paper: "An additional copy of Sigma is
/// required if Jacobi sweeps are used".
template <class Policy>
void sigma_jacobi_planes(common::Field3<typename Policy::storage_t>& out,
                         const common::Field3<typename Policy::storage_t>& in,
                         const common::Field3<typename Policy::storage_t>& src,
                         const common::Field3<typename Policy::storage_t>& inv_rho,
                         typename Policy::compute_t alpha,
                         typename Policy::compute_t dx,
                         typename Policy::compute_t dy,
                         typename Policy::compute_t dz,
                         const common::ExecSpace& exec = {});

}  // namespace igr::core

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
  [[nodiscard]] bool all(SigmaBc b) const {
    for (const SigmaBc f : face)
      if (f != b) return false;
    return true;
  }
  friend bool operator==(const SigmaBcSpec& a, const SigmaBcSpec& b) {
    return a.face == b.face;
  }
};

/// Relaxation orderings for the eq. (9) sweeps.
enum class SweepKind {
  /// Double-buffered simultaneous update.  Embarrassingly parallel and
  /// decomposition-exact (rank count cannot change the bits), at the cost
  /// of one extra N-sized buffer and a slightly slower contraction rate.
  kJacobi,
  /// In-place two-color (red–black) Gauss–Seidel: each half-pass updates
  /// one parity of (i+j+k) and is dependency-free, so it parallelizes
  /// across k-planes and pipelines within a row.  Same fixed point as
  /// Jacobi, reached in fewer sweeps.  The default.
  kRedBlack,
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

// --- Plane-streaming building blocks (the fused RHS pipeline) ---
// A full sweep (ghost fill + both red–black colors, or one Jacobi pass)
// decomposes into per-plane slots whose reads only ever see the values the
// phased schedule would show them, so a k-skewed wavefront of these calls is
// bitwise-identical to sigma_sweep_once.  See IgrSolver3D's fused pipeline
// for the slot schedule and its dependency argument.

/// x/y ghost-rim fill of interior planes k ∈ [k0, k1) only — the per-plane
/// restriction of fill_sigma_ghosts' axis-0 then axis-1 passes (corner cells
/// match: the axis-1 fill reads the axis-0 columns written just before).
template <class S>
void fill_sigma_rim(common::Field3<S>& sigma, SigmaBcSpec bc, int k0,
                    int k1, int layers = -1);

/// z ghost-plane fill of one side (0 = low, 1 = high): whole-plane copies
/// over the full x/y-extended extent, exactly the axis-2 pass of
/// fill_sigma_ghosts restricted to one face.  The source plane's rim must
/// already hold the values the phased fill would copy.
template <class S>
void fill_sigma_zghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int side,
                        int layers = -1);

/// One red–black half-pass updating parity (i+j+k) ≡ `color` (mod 2),
/// restricted to planes k ∈ [k0, k1), in place.  Reads only the opposite
/// parity (planes k0-1..k1) plus src/inv_rho, so the caller may schedule
/// planes in any order that respects the sweep's cross-plane dependencies.
/// No k-parity phasing is needed here (unlike the full-field batched pass):
/// the caller serializes plane slots, so concurrent row gathers never span
/// a plane another thread is writing.
template <class Policy>
void sigma_relax_planes(common::Field3<typename Policy::storage_t>& sigma,
                        const common::Field3<typename Policy::storage_t>& src,
                        const common::Field3<typename Policy::storage_t>& inv_rho,
                        typename Policy::compute_t alpha,
                        typename Policy::compute_t dx,
                        typename Policy::compute_t dy,
                        typename Policy::compute_t dz, int color, int k0,
                        int k1, const common::ExecSpace& exec = {});

/// One Jacobi pass restricted to planes k ∈ [k0, k1): reads `in` (planes
/// k0-1..k1 and the rim ghosts of [k0,k1)), writes `out`.  The caller owns
/// the double-buffer bookkeeping (sigma_sweep_once swaps whole fields; a
/// pipelined caller alternates buffers per sweep and swaps once at the end).
template <class Policy>
void sigma_jacobi_planes(common::Field3<typename Policy::storage_t>& out,
                         const common::Field3<typename Policy::storage_t>& in,
                         const common::Field3<typename Policy::storage_t>& src,
                         const common::Field3<typename Policy::storage_t>& inv_rho,
                         typename Policy::compute_t alpha,
                         typename Policy::compute_t dx,
                         typename Policy::compute_t dy,
                         typename Policy::compute_t dz, int k0, int k1,
                         const common::ExecSpace& exec = {});

/// Relaxation sweeps for eq. (9).
///
/// \param sigma    In: warm start (previous Sigma).  Out: updated solution.
/// \param scratch  Jacobi double-buffer; unused for Gauss–Seidel (the paper:
///                 "An additional copy of Sigma is required if Jacobi sweeps
///                 are used").
/// \param src      Right-hand side alpha*(tr((grad u)^2) + tr^2(grad u)).
/// \param inv_rho  Reciprocal density with valid ghost layers.
/// \tparam Policy  Precision policy; fields hold storage_t, arithmetic is
///                 performed at compute_t.
template <class Policy>
void sigma_solve(common::Field3<typename Policy::storage_t>& sigma,
                 common::Field3<typename Policy::storage_t>& scratch,
                 const common::Field3<typename Policy::storage_t>& src,
                 const common::Field3<typename Policy::storage_t>& inv_rho,
                 typename Policy::compute_t alpha,
                 typename Policy::compute_t dx,
                 typename Policy::compute_t dy,
                 typename Policy::compute_t dz,
                 int sweeps, SweepKind kind, SigmaBcSpec bc,
                 const common::ExecSpace& exec = {});

/// A single relaxation pass using the *current* ghost values of `sigma`
/// (no internal ghost fill).  Distributed drivers call this in lockstep with
/// halo exchanges; `sigma_solve` composes it with `fill_sigma_ghosts`.
/// Jacobi passes write through `scratch` and swap.
///
/// `inv_rho` is the reciprocal density (with ghosts); face coefficients are
/// arithmetic means of 1/rho (equivalently: 1/rho_face with a harmonic-mean
/// face density), which keeps the stencil free of divisions — the CPU
/// analogue of the fused GPU kernel's reciprocal arithmetic.  The only
/// division left is the diagonal solve, one per cell.
///
/// For the converting (16-bit storage) policies, the red–black and Jacobi
/// passes read through per-row float scratch lines filled by the batched
/// conversion lanes, with the current plane's sigma/inv_rho rows streamed
/// through a rolling 3-row ring so adjacent (j, k) visits reuse the
/// converted rows they share instead of re-converting them per stencil
/// position.  Identity-storage policies read the fields directly.
template <class Policy>
void sigma_sweep_once(common::Field3<typename Policy::storage_t>& sigma,
                      common::Field3<typename Policy::storage_t>& scratch,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz, SweepKind kind,
                      const common::ExecSpace& exec = {});

/// Max-norm residual of the discrete eq. (9); used by tests and adaptive
/// sweep-count studies.
template <class Policy>
double sigma_residual(const common::Field3<typename Policy::storage_t>& sigma,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz);

}  // namespace igr::core

#include "core/igr_solver3d.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "common/half.hpp"
#include "common/math.hpp"
#include "common/state.hpp"
#include "core/exec_space.hpp"
#include "fv/cfl.hpp"
#include "fv/riemann.hpp"
#include "fv/rk3.hpp"
#include "fv/viscous.hpp"

namespace igr::core {

SigmaBcSpec sigma_bc_from(const fv::BcSpec& bc) {
  SigmaBcSpec spec;
  for (std::size_t f = 0; f < bc.kind.size(); ++f) {
    spec.face[f] = (bc.kind[f] == fv::BcKind::kPeriodic)
                       ? SigmaBc::kPeriodic
                       : SigmaBc::kNeumann;
  }
  return spec;
}

namespace {

using common::kEnergy;
using common::kMomX;
using common::kMomY;
using common::kMomZ;
using common::kNumVars;
using common::kRho;

/// Primitive slices from one row of conservative values, each slice its
/// own restrict parameter so the vectorizer needs no runtime alias
/// versioning.  The single home of the prim arithmetic: the face pass and
/// the cell-prim rows of the flux kernel both come through here (StoreRho
/// distinguishes the face layout, which also keeps the reconstructed
/// density, from cell rows, which read density off the stencil rows
/// directly).
template <bool StoreRho, class C>
inline void prim_rows_impl(const C* __restrict qs, const C* __restrict mx,
                           const C* __restrict my, const C* __restrict mz,
                           const C* __restrict en, std::size_t fn, C gm1,
                           C* __restrict rho, C* __restrict ir,
                           C* __restrict u, C* __restrict v, C* __restrict w,
                           C* __restrict p) {
  for (std::size_t i = 0; i < fn; ++i) {
    const C r0 = C(1) / qs[i];
    if constexpr (StoreRho) rho[i] = qs[i];
    ir[i] = r0;
    u[i] = mx[i] * r0;
    v[i] = my[i] * r0;
    w[i] = mz[i] * r0;
    p[i] = gm1 * (en[i] - C(0.5) * (mx[i] * u[i] + my[i] * v[i] +
                                    mz[i] * w[i]));
  }
}

/// prim pass over the [c*fn + i] face-buffer layout.
template <class C>
inline void prim_face_row(const C* qs, std::size_t fn, C gm1, C* ps) {
  prim_rows_impl<true>(qs, qs + 1 * fn, qs + 2 * fn, qs + 3 * fn,
                       qs + 4 * fn, fn, gm1, ps, ps + fn, ps + 2 * fn,
                       ps + 3 * fn, ps + 4 * fn, ps + 5 * fn);
}

/// Scalar parameters of one face-row evaluation (row-streaming sweeps).
template <class C>
struct FaceRowParams {
  C gam, gm1, mu, zeta, rho_floor, p_floor;
  C inv_d, inv2dA, inv2dB;
  bool viscous;
  std::ptrdiff_t st, stA, stB;  // flat strides: along-sweep, transverse A/B
};

/// One row of faces through the full interface pipeline — reconstruction,
/// face primitives, non-physical fallback, floors, wave-speed bound,
/// Rusanov assembly, optional viscous augmentation — with every loop
/// unit-stride over the row: `sc[c][t][i]` is variable c at the t-th
/// stencil cell of face i, `lcp`/`rcp` are the (ir, u, v, w, p) rows of the
/// face's left and right cells, and `pl_mom`/`pl_ir` point at the left cell
/// so `+ P.st` reaches the right cell for the raw viscous taps.  Both the
/// phased and the fused schedules evaluate every face here, so they agree
/// bitwise — the fused-pipeline tests and the flux RHS fingerprints pin
/// this.
template <int Dir, class C, class S, class ReconOp>
inline void compute_face_row(const ReconOp& recon, std::size_t fn,
                             const C* (*sc)[6], const C* const* lcp,
                             const C* const* rcp, const S* const* pl_mom,
                             const S* pl_ir, const FaceRowParams<C>& P,
                             C* __restrict lf, C* __restrict rf,
                             C* __restrict lp, C* __restrict rp,
                             C* __restrict smax_buf,
                             unsigned char* __restrict fallback,
                             C* __restrict flux) {
  constexpr int axA = (Dir == 0) ? 1 : 0;
  constexpr int axB = (Dir == 2) ? 1 : 2;
  const C gam = P.gam, gm1 = P.gm1;

  // Reconstruction, one tight loop per variable.
  for (int c = 0; c <= kNumVars; ++c) {
    const C* s0 = sc[c][0];
    const C* s1 = sc[c][1];
    const C* s2 = sc[c][2];
    const C* s3 = sc[c][3];
    const C* s4 = sc[c][4];
    const C* s5 = sc[c][5];
    C* ql = lf + static_cast<std::size_t>(c) * fn;
    C* qr = rf + static_cast<std::size_t>(c) * fn;
    for (std::size_t i = 0; i < fn; ++i) {
      const auto f = recon.vals(s0[i], s1[i], s2[i], s3[i], s4[i], s5[i]);
      ql[i] = f.left;
      qr[i] = f.right;
    }
  }

  // Face primitives: one division per side per face.  The slices are
  // passed as individual restrict parameters — slices derived from one
  // restrict base still trip the vectorizer's alias-versioning limit.
  prim_face_row(lf, fn, gm1, lp);
  prim_face_row(rf, fn, gm1, rp);

  // Non-physical fallback mask + piecewise-constant patch.
  unsigned any_fallback = 0;
  for (std::size_t i = 0; i < fn; ++i) {
    const C rl = lf[i], rr = rf[i];
    const C kel = lf[fn + i] * lf[fn + i] + lf[2 * fn + i] * lf[2 * fn + i] +
                  lf[3 * fn + i] * lf[3 * fn + i];
    const C ker = rf[fn + i] * rf[fn + i] + rf[2 * fn + i] * rf[2 * fn + i] +
                  rf[3 * fn + i] * rf[3 * fn + i];
    // Bitwise-| of the four predicates: no short-circuit control flow, so
    // the mask pass if-converts and vectorizes (operands are pure; the
    // mask values are identical to the short-circuit form).
    const bool bad =
        static_cast<unsigned>(!(rl > C(0))) |
        static_cast<unsigned>(!(C(2) * rl * lf[4 * fn + i] - kel > C(0))) |
        static_cast<unsigned>(!(rr > C(0))) |
        static_cast<unsigned>(!(C(2) * rr * rf[4 * fn + i] - ker > C(0)));
    fallback[i] = static_cast<unsigned char>(bad);
    any_fallback |= static_cast<unsigned>(bad);
  }
  if (any_fallback) {
    for (std::size_t i = 0; i < fn; ++i) {
      if (!fallback[i]) continue;
      for (int c = 0; c <= kNumVars; ++c) {
        lf[static_cast<std::size_t>(c) * fn + i] = sc[c][2][i];
        rf[static_cast<std::size_t>(c) * fn + i] = sc[c][3][i];
      }
      lp[i] = lf[i];
      lp[fn + i] = lcp[0][i];
      lp[2 * fn + i] = lcp[1][i];
      lp[3 * fn + i] = lcp[2][i];
      lp[4 * fn + i] = lcp[3][i];
      lp[5 * fn + i] = lcp[4][i];
      rp[i] = rf[i];
      rp[fn + i] = rcp[0][i];
      rp[2 * fn + i] = rcp[1][i];
      rp[3 * fn + i] = rcp[2][i];
      rp[4 * fn + i] = rcp[3][i];
      rp[5 * fn + i] = rcp[4][i];
    }
  }

  // Optional configured floors.
  if (P.rho_floor > C(0)) {
    for (std::size_t i = 0; i < fn; ++i) {
      lp[i] = std::max(lp[i], P.rho_floor);
      rp[i] = std::max(rp[i], P.rho_floor);
    }
  }
  if (P.p_floor > C(0)) {
    for (std::size_t i = 0; i < fn; ++i) {
      lp[5 * fn + i] = std::max(lp[5 * fn + i], P.p_floor);
      rp[5 * fn + i] = std::max(rp[5 * fn + i], P.p_floor);
    }
  }

  // Rusanov flux with the Sigma-augmented pressure.
  {
    constexpr std::size_t kUn = 2 + static_cast<std::size_t>(Dir);
    const C* sfl = lf + static_cast<std::size_t>(kNumVars) * fn;
    const C* sfr = rf + static_cast<std::size_t>(kNumVars) * fn;
    for (std::size_t i = 0; i < fn; ++i) {
      const C unl = lp[kUn * fn + i];
      const C unr = rp[kUn * fn + i];
      const C cl =
          std::sqrt(gam * std::max(lp[5 * fn + i] + sfl[i], C(0)) *
                    lp[fn + i]);
      const C cr =
          std::sqrt(gam * std::max(rp[5 * fn + i] + sfr[i], C(0)) *
                    rp[fn + i]);
      smax_buf[i] = std::max(std::abs(unl) + cl, std::abs(unr) + cr);
    }
    for (std::size_t i = 0; i < fn; ++i) {
      const C rl = lp[i], rr = rp[i];
      const C ul = lp[2 * fn + i], ur = rp[2 * fn + i];
      const C vl = lp[3 * fn + i], vr = rp[3 * fn + i];
      const C wwl = lp[4 * fn + i], wwr = rp[4 * fn + i];
      const C unl = lp[kUn * fn + i], unr = rp[kUn * fn + i];
      const C el = lf[4 * fn + i], er = rf[4 * fn + i];
      const C ptl = lp[5 * fn + i] + sfl[i];
      const C ptr = rp[5 * fn + i] + sfr[i];
      const C sm = smax_buf[i];

      const C qml[3] = {rl * ul, rl * vl, rl * wwl};
      const C qmr[3] = {rr * ur, rr * vr, rr * wwr};

      auto blend = [&](C fl_c, C fr_c, C ql_c, C qr_c) {
        return C(0.5) * (fl_c + fr_c) - C(0.5) * sm * (qr_c - ql_c);
      };
      flux[i] = blend(rl * unl, rr * unr, rl, rr);
      C fml[3] = {qml[0] * unl, qml[1] * unl, qml[2] * unl};
      C fmr[3] = {qmr[0] * unr, qmr[1] * unr, qmr[2] * unr};
      fml[Dir] += ptl;
      fmr[Dir] += ptr;
      flux[fn + i] = blend(fml[0], fmr[0], qml[0], qmr[0]);
      flux[2 * fn + i] = blend(fml[1], fmr[1], qml[1], qmr[1]);
      flux[3 * fn + i] = blend(fml[2], fmr[2], qml[2], qmr[2]);
      flux[4 * fn + i] = blend((el + ptl) * unl, (er + ptr) * unr, el, er);
    }
  }

  if (P.viscous) {
    for (std::size_t i = 0; i < fn; ++i) {
      fv::VelGrad<C> g;
      C uf[3];
      for (int a = 0; a < 3; ++a) {
        uf[a] = C(0.5) * (lcp[1 + a][i] + rcp[1 + a][i]);
        g.g[a][Dir] = (rcp[1 + a][i] - lcp[1 + a][i]) * P.inv_d;
        const S* pm = pl_mom[a];
        auto dv = [&](std::ptrdiff_t o, std::ptrdiff_t stT) -> C {
          return static_cast<C>(pm[o + stT]) *
                     static_cast<C>(pl_ir[o + stT]) -
                 static_cast<C>(pm[o - stT]) *
                     static_cast<C>(pl_ir[o - stT]);
        };
        const auto oi = static_cast<std::ptrdiff_t>(i);
        g.g[a][axA] =
            C(0.5) * (dv(oi, P.stA) + dv(oi + P.st, P.stA)) * P.inv2dA;
        g.g[a][axB] =
            C(0.5) * (dv(oi, P.stB) + dv(oi + P.st, P.stB)) * P.inv2dB;
      }
      const auto fv_ = fv::viscous_flux(g, uf, P.mu, P.zeta, Dir);
      for (int c = 0; c < kNumVars; ++c)
        flux[static_cast<std::size_t>(c) * fn + i] += fv_[c];
    }
  }
}

}  // namespace

template <class Policy>
IgrSolver3D<Policy>::IgrSolver3D(const mesh::Grid& grid,
                                 const common::SolverConfig& cfg,
                                 fv::BcSpec bc, fv::ReconScheme recon)
    : grid_(grid),
      cfg_(cfg),
      bc_(std::move(bc)),
      recon_(recon),
      eos_(cfg.gamma),
      alpha_(cfg.alpha_factor * grid.min_dx() * grid.min_dx()),
      q_(grid.nx(), grid.ny(), grid.nz(), 3),
      qstage_(grid.nx(), grid.ny(), grid.nz(), 3),
      rhs_(grid.nx(), grid.ny(), grid.nz(), 3),
      sigma_(grid.nx(), grid.ny(), grid.nz(), 3),
      sigma_src_(grid.nx(), grid.ny(), grid.nz(), 3),
      inv_rho_(grid.nx(), grid.ny(), grid.nz(), 3) {
  cfg_.validate();
  profile_.enable(cfg_.phase_timing);
  sigma_bc_ = sigma_bc_from(bc_);
  if (!cfg_.sigma_gauss_seidel) {
    sigma_scratch_ =
        common::Field3<S>(grid.nx(), grid.ny(), grid.nz(), 3);
  }
  grind_.set_cells_per_step(grid.cells());
}

template <class Policy>
void IgrSolver3D<Policy>::init(const PrimFn& prim) {
  const int nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const auto w = prim(grid_.x(i), grid_.y(j), grid_.z(k));
        const auto qc = eos_.to_cons(w);
        for (int c = 0; c < kNumVars; ++c)
          q_[c](i, j, k) = static_cast<S>(qc[c]);
      }
    }
  }
  sigma_.fill(S{});
  time_ = 0.0;
  next_dt_valid_ = false;
}

template <class Policy>
void IgrSolver3D<Policy>::refresh_inv_rho_planes(common::StateField3<S>& q,
                                                 int k0, int k1) {
  const int nx = grid_.nx(), ny = grid_.ny();
  const int ng = q.ng();
  const std::size_t row_len = static_cast<std::size_t>(nx) + 2 * ng;
  const common::ExecSpace exec = cfg_.exec();
  if constexpr (common::converts_storage<Policy>) {
    // Whole ghosted rows through the batched conversion lanes: one batch
    // load, a vector reciprocal, one batch store per row.
    exec.run_team([&](const common::ExecSpace::Team& t) {
      std::vector<C> row(row_len);
      long cb, ce;
      t.chunk(k1 - k0, cb, ce);
      for (long kk = cb; kk < ce; ++kk) {
        const int k = k0 + static_cast<int>(kk);
        for (int j = -ng; j < ny + ng; ++j) {
          common::load_line<Policy>(&q[kRho](-ng, j, k), row.data(),
                                    row_len);
          for (std::size_t i = 0; i < row_len; ++i) row[i] = C(1) / row[i];
          common::store_line<Policy>(row.data(), &inv_rho_(-ng, j, k),
                                     row_len);
        }
      }
    });
  } else {
    exec.for_each(k1 - k0, [&](long kk) {
      const int k = k0 + static_cast<int>(kk);
      for (int j = -ng; j < ny + ng; ++j) {
        const S* pr = &q[kRho](-ng, j, k);
        S* pir = &inv_rho_(-ng, j, k);
        for (int i = 0; i < nx + 2 * ng; ++i) {
          pir[i] = static_cast<S>(C(1) / static_cast<C>(pr[i]));
        }
      }
    });
  }
}

template <class Policy>
void IgrSolver3D<Policy>::compute_sigma_source_planes(
    common::StateField3<S>& q, int k0, int k1) {
  const int nx = grid_.nx(), ny = grid_.ny();
  const C inv2dx = C(0.5) / static_cast<C>(grid_.dx());
  const C inv2dy = C(0.5) / static_cast<C>(grid_.dy());
  const C inv2dz = C(0.5) / static_cast<C>(grid_.dz());
  const C al = static_cast<C>(alpha_);

  if constexpr (common::converts_storage<Policy>) {
    // Batched form with a rolling per-plane row cache: each thread
    // streams a contiguous plane range and keeps the velocity rows
    // u_a = m_a * (1/rho) of planes k-1, k, k+1 in a 3-plane ring, so
    // every momentum/inv_rho row is converted once per plane visit
    // instead of once per stencil position (the old slab form converted
    // each row up to five times across adjacent (j,k) iterations).  Rows
    // span i in [-1, nx] and j in [-1, ny] so both the in-row i∓1 taps
    // and the j∓1 neighbor rows are in-ring; the products are the exact
    // expressions of the per-position slab, so values are bitwise
    // unchanged.
    const std::size_t row_len = static_cast<std::size_t>(nx) + 2;
    const std::size_t rows_per_plane = static_cast<std::size_t>(ny) + 2;
    const std::size_t plane_elems = 3 * rows_per_plane * row_len;
    const common::ExecSpace exec = cfg_.exec();
    exec.run_team([&](const common::ExecSpace::Team& t) {
      std::vector<C> ring(3 * plane_elems);
      std::vector<C> ir_row(row_len), mom_row(row_len);
      std::vector<C> src_row(static_cast<std::size_t>(nx));
      // Velocity row of component `a` at (j, plane k); ring slot cycles
      // with k (k >= -1 here, so k+1 is a valid modulus argument).
      auto vrow = [&](int k, int j, int a) -> C* {
        return ring.data() +
               static_cast<std::size_t>((k + 1) % 3) * plane_elems +
               (static_cast<std::size_t>(j + 1) * 3 +
                static_cast<std::size_t>(a)) *
                   row_len;
      };
      auto fill_plane = [&](int k) {
        for (int j = -1; j <= ny; ++j) {
          common::load_line<Policy>(&inv_rho_(-1, j, k), ir_row.data(),
                                    row_len);
          for (int a = 0; a < 3; ++a) {
            common::load_line<Policy>(&q[kMomX + a](-1, j, k),
                                      mom_row.data(), row_len);
            C* v = vrow(k, j, a);
            for (std::size_t i = 0; i < row_len; ++i)
              v[i] = mom_row[i] * ir_row[i];
          }
        }
      };
      // Contiguous per-member plane chunks (the ring needs an ascending
      // serial walk); remainder planes go to the low tids.
      long cb, ce;
      t.chunk(k1 - k0, cb, ce);
      const int c0 = k0 + static_cast<int>(cb);
      const int c1 = k0 + static_cast<int>(ce);
      if (c0 < c1) {
        fill_plane(c0 - 1);
        fill_plane(c0);
        for (int k = c0; k < c1; ++k) {
          fill_plane(k + 1);
          for (int j = 0; j < ny; ++j) {
            for (int i = 0; i < nx; ++i) {
              const std::size_t o = static_cast<std::size_t>(i) + 1;
              fv::VelGrad<C> g;
              for (int a = 0; a < 3; ++a) {
                const C* vc = vrow(k, j, a);
                const C* vjm = vrow(k, j - 1, a);
                const C* vjp = vrow(k, j + 1, a);
                const C* vkm = vrow(k - 1, j, a);
                const C* vkp = vrow(k + 1, j, a);
                g.g[a][0] = (vc[o + 1] - vc[o - 1]) * inv2dx;
                g.g[a][1] = (vjp[o] - vjm[o]) * inv2dy;
                g.g[a][2] = (vkp[o] - vkm[o]) * inv2dz;
              }
              const C d = g.div();
              src_row[static_cast<std::size_t>(i)] =
                  al * (g.tr_sq() + d * d);
            }
            common::store_line<Policy>(src_row.data(),
                                       sigma_src_.row(j, k),
                                       static_cast<std::size_t>(nx));
          }
        }
      }
    });
  } else {
    // Stencil taps hoisted into per-row stream pointers (the indexed-offset
    // form defeats the vectorizer); same products, same bits.
    const std::ptrdiff_t sy = inv_rho_.stride(1);
    const std::ptrdiff_t sz = inv_rho_.stride(2);
    cfg_.exec().for_each(k1 - k0, [&](long kk) {
      const int k = k0 + static_cast<int>(kk);
      for (int j = 0; j < ny; ++j) {
        const S* pir = &inv_rho_(0, j, k);
        const S* mx_ = &q[kMomX](0, j, k);
        const S* my_ = &q[kMomY](0, j, k);
        const S* mz_ = &q[kMomZ](0, j, k);
        S* __restrict psrc = &sigma_src_(0, j, k);
        const S* ir_jm = pir - sy;
        const S* ir_jp = pir + sy;
        const S* ir_km = pir - sz;
        const S* ir_kp = pir + sz;
        // The component loop is unrolled with named stream pointers — a base
        // pointer re-loaded from an array per iteration defeats the
        // vectorizer's data-reference analysis.  Straight unroll of the
        // a = 0..2 loop; expressions (and bits) unchanged.
        auto grad = [&](const S* m, int i, C* g3) {
          g3[0] = (static_cast<C>(m[i + 1]) * static_cast<C>(pir[i + 1]) -
                   static_cast<C>(m[i - 1]) * static_cast<C>(pir[i - 1])) *
                  inv2dx;
          g3[1] = (static_cast<C>(m[i + sy]) * static_cast<C>(ir_jp[i]) -
                   static_cast<C>(m[i - sy]) * static_cast<C>(ir_jm[i])) *
                  inv2dy;
          g3[2] = (static_cast<C>(m[i + sz]) * static_cast<C>(ir_kp[i]) -
                   static_cast<C>(m[i - sz]) * static_cast<C>(ir_km[i])) *
                  inv2dz;
        };
        for (int i = 0; i < nx; ++i) {
          fv::VelGrad<C> g;
          grad(mx_, i, g.g[0]);
          grad(my_, i, g.g[1]);
          grad(mz_, i, g.g[2]);
          const C d = g.div();
          psrc[i] = static_cast<S>(al * (g.tr_sq() + d * d));
        }
      }
    });
  }
}

template <class Policy>
void IgrSolver3D<Policy>::compute_sigma_source(common::StateField3<S>& q) {
  // Interleave the reciprocal-density refresh with the source build in
  // k-chunks: the source consumes planes the refresh just wrote while they
  // are still cache-resident.  Both kernels are pure per-plane maps of the
  // same inputs, so chunking cannot change a bit.  The trailing refresh
  // covers the ghost planes the relaxation sweeps and the viscous flux
  // taps read.
  const int nz = grid_.nz();
  const int ng = q.ng();
  const int chunk = std::max(flux_block(), 4);
  int ir_hi = -ng;  // first ghosted plane not yet refreshed
  auto ensure_ir = [&](int upto) {  // exclusive
    upto = std::min(upto, nz + ng);
    if (upto > ir_hi) {
      refresh_inv_rho_planes(q, ir_hi, upto);
      ir_hi = upto;
    }
  };
  for (int c0 = 0; c0 < nz; c0 += chunk) {
    const int c1 = std::min(c0 + chunk, nz);
    ensure_ir(c1 + 1);
    compute_sigma_source_planes(q, c0, c1);
  }
  ensure_ir(nz + ng);
}

template <class Policy>
void IgrSolver3D<Policy>::build_sigma_source_interior(
    common::StateField3<S>& q) {
  const int nz = grid_.nz();
  refresh_inv_rho_planes(q, 0, nz);
  if (nz > 2) compute_sigma_source_planes(q, 1, nz - 1);
}

template <class Policy>
void IgrSolver3D<Policy>::build_sigma_source_boundary(
    common::StateField3<S>& q) {
  const int nz = grid_.nz();
  const int ng = q.ng();
  refresh_inv_rho_planes(q, -ng, 0);
  refresh_inv_rho_planes(q, nz, nz + ng);
  compute_sigma_source_planes(q, 0, std::min(1, nz));
  if (nz > 1) compute_sigma_source_planes(q, nz - 1, nz);
}

/// One dimensional flux sweep, row-streaming: faces are evaluated a *row*
/// (unit-stride x span) at a time, reading the six stencil rows of each
/// face row directly from the fields (identity-storage policies) or from a
/// rolling ring of batch-converted rows (16-bit storage).  All inner loops
/// are unit-stride, and for the transverse sweeps each face row is computed
/// once and reused by the two cell rows it bounds (a rolling flux-row
/// pair).  The per-face arithmetic lives in compute_face_row; the flux RHS
/// fingerprints in tests/test_flux_dispatch.cpp pin its bits.
template <class Policy>
template <int Dir, class ReconOp>
void IgrSolver3D<Policy>::flux_sweep_stream(common::StateField3<S>& q,
                                            common::StateField3<S>& rhs,
                                            ReconOp recon, bool overwrite,
                                            const CellRegion& reg) {
  if (reg.empty()) return;
  constexpr int dir = Dir;
  const int x0 = reg.lo[0];
  const int nxr = reg.hi[0] - reg.lo[0];
  const C gam = static_cast<C>(cfg_.gamma);
  const bool viscous = (cfg_.mu > 0.0 || cfg_.zeta > 0.0);
  const std::array<C, 3> dd{static_cast<C>(grid_.dx()),
                            static_cast<C>(grid_.dy()),
                            static_cast<C>(grid_.dz())};
  constexpr int axA = (Dir == 0) ? 1 : 0;
  constexpr int axB = (Dir == 2) ? 1 : 2;

  FaceRowParams<C> P;
  P.gam = gam;
  P.gm1 = gam - C(1);
  P.mu = static_cast<C>(cfg_.mu);
  P.zeta = static_cast<C>(cfg_.zeta);
  P.rho_floor = static_cast<C>(cfg_.density_floor);
  P.p_floor = static_cast<C>(cfg_.pressure_floor);
  P.inv_d = C(1) / dd[static_cast<std::size_t>(dir)];
  P.inv2dA = C(0.5) / dd[static_cast<std::size_t>(axA)];
  P.inv2dB = C(0.5) / dd[static_cast<std::size_t>(axB)];
  P.viscous = viscous;
  P.st = q[0].stride(dir);
  P.stA = q[0].stride(axA);
  P.stB = q[0].stride(axB);

  const C gm1 = P.gm1;
  // Cell-primitive rows: ir, u, v, w, p from a row of conservative values —
  // the face prim pass over cell rows (one division per cell).
  auto cell_prims = [gm1](const C* rho, const C* mx, const C* my,
                          const C* mz, const C* en, std::size_t n, C* ir,
                          C* u, C* v, C* w, C* p) {
    prim_rows_impl<false>(rho, mx, my, mz, en, n, gm1,
                          static_cast<C*>(nullptr), ir, u, v, w, p);
  };
  // Storage row of variable c (the state components, then Sigma).
  auto field_row = [&](int c, int j, int k) -> const S* {
    return (c < kNumVars) ? &q[c](0, j, k) : &sigma_(0, j, k);
  };

  if constexpr (Dir == 0) {
    const std::size_t fn = static_cast<std::size_t>(nxr) + 1;  // faces/row
    const std::size_t span = fn + 5;        // stencil cells x0-3 .. x0+nxr+2
    const std::size_t pspan = fn + 1;       // prim cells  x0-1 .. x0+nxr
    const int b_lo = reg.lo[2], b_hi = reg.hi[2];
    const int a_lo = reg.lo[1], a_hi = reg.hi[1];
    const common::ExecSpace exec = cfg_.exec();
    const long n_rows =
        static_cast<long>(b_hi - b_lo) * static_cast<long>(a_hi - a_lo);
    const long na = a_hi - a_lo;
    exec.run_team([&](const common::ExecSpace::Team& team) {
      std::vector<C> conv;  // converted stencil rows (FP16/32 only)
      if constexpr (common::converts_storage<Policy>) {
        conv.resize(static_cast<std::size_t>(kNumVars + 1) * span);
      }
      std::vector<C> prows(5 * pspan);
      std::vector<C> faces(2 * (kNumVars + 1) * fn);
      std::vector<C> fprims(2 * 6 * fn);
      std::vector<C> smax_buf(fn);
      std::vector<unsigned char> fallback(fn);
      std::vector<C> flux(kNumVars * fn);
      std::vector<C> out_row(static_cast<std::size_t>(nxr));
      long rb0, rb1;
      team.chunk(n_rows, rb0, rb1);
      for (long ridx = rb0; ridx < rb1; ++ridx) {
        {
          const int k = b_lo + static_cast<int>(ridx / na);
          const int j = a_lo + static_cast<int>(ridx % na);
          const C* sc[kNumVars + 1][6];
          for (int c = 0; c <= kNumVars; ++c) {
            const S* row = field_row(c, j, k) + (x0 - 3);
            const C* crow;
            if constexpr (common::converts_storage<Policy>) {
              C* dst = conv.data() + static_cast<std::size_t>(c) * span;
              common::load_line<Policy>(row, dst, span);
              crow = dst;
            } else {
              crow = row;
            }
            for (int t = 0; t < 6; ++t) sc[c][t] = crow + t;
          }
          // Cell prims over x0-1 .. x0+nxr: index i of sc[c][2] is cell
          // x0-1+i, exactly the prim span.
          C* prow[5];
          for (int p5 = 0; p5 < 5; ++p5)
            prow[p5] = prows.data() + static_cast<std::size_t>(p5) * pspan;
          cell_prims(sc[kRho][2], sc[kMomX][2], sc[kMomY][2], sc[kMomZ][2],
                     sc[kEnergy][2], pspan, prow[0], prow[1], prow[2],
                     prow[3], prow[4]);
          const C* lcp[5] = {prow[0], prow[1], prow[2], prow[3], prow[4]};
          const C* rcp[5] = {prow[0] + 1, prow[1] + 1, prow[2] + 1,
                             prow[3] + 1, prow[4] + 1};
          const S* pl_mom[3] = {&q[kMomX](x0 - 1, j, k),
                                &q[kMomY](x0 - 1, j, k),
                                &q[kMomZ](x0 - 1, j, k)};
          const S* pl_ir = &inv_rho_(x0 - 1, j, k);
          C* lf = faces.data();
          C* rf = faces.data() + (kNumVars + 1) * fn;
          compute_face_row<Dir, C, S>(recon, fn, sc, lcp, rcp, pl_mom, pl_ir,
                                      P, lf, rf, fprims.data(),
                                      fprims.data() + 6 * fn,
                                      smax_buf.data(), fallback.data(),
                                      flux.data());
          for (int c = 0; c < kNumVars; ++c) {
            S* __restrict pr = &rhs[c](x0, j, k);
            const C* __restrict fc =
                flux.data() + static_cast<std::size_t>(c) * fn;
            if constexpr (common::converts_storage<Policy>) {
              C* row = out_row.data();
              const std::size_t nd = static_cast<std::size_t>(nxr);
              if (overwrite) {
                for (std::size_t s = 0; s < nd; ++s)
                  row[s] = (fc[s] - fc[s + 1]) * P.inv_d;
              } else {
                common::load_line<Policy>(pr, row, nd);
                for (std::size_t s = 0; s < nd; ++s)
                  row[s] += (fc[s] - fc[s + 1]) * P.inv_d;
              }
              common::store_line<Policy>(row, pr, nd);
            } else if (overwrite) {
              for (int s = 0; s < nxr; ++s)
                pr[s] = static_cast<S>((fc[s] - fc[s + 1]) * P.inv_d);
            } else {
              for (int s = 0; s < nxr; ++s) {
                const C cur = static_cast<C>(pr[s]);
                pr[s] = static_cast<S>(cur + (fc[s] - fc[s + 1]) * P.inv_d);
              }
            }
          }
        }
      }
    });
    return;
  } else {
    // Transverse sweep (Dir = 1 or 2): stream face rows along the sweep
    // axis at fixed outer coordinate, rolling (a) a 6-deep ring of
    // compute-precision stencil rows per variable, (b) the two cell-prim
    // rows bounding the current face row, and (c) the flux-row pair that
    // turns two consecutive face rows into one RHS row.
    const std::size_t fn = static_cast<std::size_t>(nxr);
    const int s_lo = reg.lo[static_cast<std::size_t>(dir)];
    const int s_hi = reg.hi[static_cast<std::size_t>(dir)];
    const int o_lo = (Dir == 1) ? reg.lo[2] : reg.lo[1];
    const int o_hi = (Dir == 1) ? reg.hi[2] : reg.hi[1];
    const common::ExecSpace exec = cfg_.exec();
    exec.run_team([&](const common::ExecSpace::Team& team) {
      std::vector<C> ring;  // [c][slot] rows (FP16/32 only)
      if constexpr (common::converts_storage<Policy>) {
        ring.resize(static_cast<std::size_t>(kNumVars + 1) * 6 * fn);
      }
      std::vector<C> prows(2 * 5 * fn);      // rolling cell-prim rows
      std::vector<C> faces(2 * (kNumVars + 1) * fn);
      std::vector<C> fprims(2 * 6 * fn);
      std::vector<C> smax_buf(fn);
      std::vector<unsigned char> fallback(fn);
      std::vector<C> flux2(2 * kNumVars * fn);  // rolling flux-row pair
      std::vector<C> out_row(fn);
      long ob, oe;
      team.chunk(o_hi - o_lo, ob, oe);
      for (long oo = ob; oo < oe; ++oo) {
        const int oc = o_lo + static_cast<int>(oo);
        const int j_of = (Dir == 1) ? -1 : oc;   // -1 marks "varies"
        const int k_of = (Dir == 1) ? oc : -1;
        // Compute-precision row of variable c at sweep coordinate sc_i.
        auto cons_row = [&](int c, int si) -> const C* {
          const int jj = (Dir == 1) ? si : j_of;
          const int kk = (Dir == 1) ? k_of : si;
          const S* row = field_row(c, jj, kk) + x0;
          if constexpr (common::converts_storage<Policy>) {
            C* dst = ring.data() +
                     (static_cast<std::size_t>(c) * 6 +
                      static_cast<std::size_t>(((si % 6) + 6) % 6)) *
                         fn;
            common::load_line<Policy>(row, dst, fn);
            return dst;
          } else {
            return row;
          }
        };
        // Ring slot lookup without reconversion (row already loaded).
        auto ring_row = [&](int c, int si) -> const C* {
          if constexpr (common::converts_storage<Policy>) {
            return ring.data() +
                   (static_cast<std::size_t>(c) * 6 +
                    static_cast<std::size_t>(((si % 6) + 6) % 6)) *
                       fn;
          } else {
            const int jj = (Dir == 1) ? si : j_of;
            const int kk = (Dir == 1) ? k_of : si;
            return field_row(c, jj, kk) + x0;
          }
        };
        auto prim_rows = [&](int si, C** out5) {
          C* base = prows.data() +
                    static_cast<std::size_t>(si & 1) * 5 * fn;
          for (int p5 = 0; p5 < 5; ++p5)
            out5[p5] = base + static_cast<std::size_t>(p5) * fn;
        };
        auto build_prims = [&](int si) {
          C* pr5[5];
          prim_rows(si, pr5);
          cell_prims(ring_row(kRho, si), ring_row(kMomX, si),
                     ring_row(kMomY, si), ring_row(kMomZ, si),
                     ring_row(kEnergy, si), fn, pr5[0], pr5[1], pr5[2],
                     pr5[3], pr5[4]);
        };

        // Prologue: stencil rows of the first face row, and the prims of
        // the two cells it separates (s_lo-1 is a ghost row).
        for (int c = 0; c <= kNumVars; ++c)
          for (int t = -3; t <= 2; ++t) cons_row(c, s_lo + t);
        build_prims(s_lo - 1);
        build_prims(s_lo);

        for (int sf = s_lo; sf <= s_hi; ++sf) {
          if (sf > s_lo) {
            for (int c = 0; c <= kNumVars; ++c) cons_row(c, sf + 2);
            build_prims(sf);
          }
          const C* sc[kNumVars + 1][6];
          for (int c = 0; c <= kNumVars; ++c)
            for (int t = 0; t < 6; ++t) sc[c][t] = ring_row(c, sf - 3 + t);
          C* lcp5[5];
          C* rcp5[5];
          prim_rows(sf - 1, lcp5);
          prim_rows(sf, rcp5);
          const C* lcp[5] = {lcp5[0], lcp5[1], lcp5[2], lcp5[3], lcp5[4]};
          const C* rcp[5] = {rcp5[0], rcp5[1], rcp5[2], rcp5[3], rcp5[4]};
          const int jl = (Dir == 1) ? sf - 1 : j_of;
          const int kl = (Dir == 1) ? k_of : sf - 1;
          const S* pl_mom[3] = {&q[kMomX](x0, jl, kl), &q[kMomY](x0, jl, kl),
                                &q[kMomZ](x0, jl, kl)};
          const S* pl_ir = &inv_rho_(x0, jl, kl);
          C* lf = faces.data();
          C* rf = faces.data() + (kNumVars + 1) * fn;
          C* fx = flux2.data() +
                  static_cast<std::size_t>(sf & 1) * kNumVars * fn;
          compute_face_row<Dir, C, S>(recon, fn, sc, lcp, rcp, pl_mom, pl_ir,
                                      P, lf, rf, fprims.data(),
                                      fprims.data() + 6 * fn,
                                      smax_buf.data(), fallback.data(), fx);
          if (sf == s_lo) continue;
          // RHS row for cell row sf-1: faces below (sf-1) and above (sf).
          const C* flo = flux2.data() +
                         static_cast<std::size_t>((sf - 1) & 1) * kNumVars *
                             fn;
          const C* fhi = fx;
          const int jr = (Dir == 1) ? sf - 1 : j_of;
          const int kr = (Dir == 1) ? k_of : sf - 1;
          for (int c = 0; c < kNumVars; ++c) {
            S* __restrict pr = &rhs[c](x0, jr, kr);
            const C* __restrict lo_c =
                flo + static_cast<std::size_t>(c) * fn;
            const C* __restrict hi_c =
                fhi + static_cast<std::size_t>(c) * fn;
            if constexpr (common::converts_storage<Policy>) {
              C* row = out_row.data();
              if (overwrite) {
                for (std::size_t s = 0; s < fn; ++s)
                  row[s] = (lo_c[s] - hi_c[s]) * P.inv_d;
              } else {
                common::load_line<Policy>(pr, row, fn);
                for (std::size_t s = 0; s < fn; ++s)
                  row[s] += (lo_c[s] - hi_c[s]) * P.inv_d;
              }
              common::store_line<Policy>(row, pr, fn);
            } else if (overwrite) {
              for (std::size_t s = 0; s < fn; ++s)
                pr[s] = static_cast<S>((lo_c[s] - hi_c[s]) * P.inv_d);
            } else {
              for (std::size_t s = 0; s < fn; ++s) {
                const C cur = static_cast<C>(pr[s]);
                pr[s] = static_cast<S>(cur + (lo_c[s] - hi_c[s]) * P.inv_d);
              }
            }
          }
        }
      }
    });
  }
}

template <class Policy>
template <class ReconOp>
void IgrSolver3D<Policy>::flux_stream_all(common::StateField3<S>& q,
                                          common::StateField3<S>& rhs,
                                          ReconOp recon,
                                          const CellRegion& reg) {
  // The x sweep overwrites rhs, folding the zero-fill into its write-back
  // and saving one full 5N traversal per RK stage; y and z accumulate.
  // Regions partition the block, so every cell sees exactly one overwrite.
  flux_sweep_stream<0>(q, rhs, recon, /*overwrite=*/true, reg);
  flux_sweep_stream<1>(q, rhs, recon, /*overwrite=*/false, reg);
  flux_sweep_stream<2>(q, rhs, recon, /*overwrite=*/false, reg);
}

template <class Policy>
void IgrSolver3D<Policy>::apply_domain_bc(common::StateField3<S>& q) {
  fv::apply_bc(q, bc_, grid_, eos_);
}

template <class Policy>
void IgrSolver3D<Policy>::sigma_sweep(common::StateField3<S>& /*q*/) {
  ++sigma_sweeps_done_;
  sigma_sweep_once<Policy>(sigma_, sigma_scratch_, sigma_src_, inv_rho_,
                           static_cast<C>(alpha_), static_cast<C>(grid_.dx()),
                           static_cast<C>(grid_.dy()),
                           static_cast<C>(grid_.dz()),
                           cfg_.sigma_gauss_seidel ? SweepKind::kRedBlack
                                                   : SweepKind::kJacobi,
                           cfg_.exec());
}

template <class Policy>
void IgrSolver3D<Policy>::fill_sigma_boundary() {
  fill_sigma_ghosts(sigma_, sigma_bc_);
}

template <class Policy>
void IgrSolver3D<Policy>::prepare_flux_pass(common::StateField3<S>& q) {
  // The viscous path reads the persistent reciprocal-density field; when
  // the Sigma solve is disabled nobody has refreshed it this RHS, so do it
  // here (once per RHS — the boundary pass of a split never repeats it).
  // With Sigma active, build_sigma_source already recomputed it from the
  // same ghost-filled state.
  const bool viscous = (cfg_.mu > 0.0 || cfg_.zeta > 0.0);
  const bool sigma_active = (alpha_ > 0.0 && cfg_.sigma_sweeps > 0);
  if (viscous && !sigma_active) refresh_inv_rho(q);
}

template <class Policy>
void IgrSolver3D<Policy>::compute_fluxes_region(common::StateField3<S>& q,
                                                common::StateField3<S>& rhs,
                                                const CellRegion& reg,
                                                bool prepare) {
  // The sweeps reuse q[0]'s base offset and strides for rhs, Sigma, and
  // inv_rho; every field must share the solver's block shape (this held
  // implicitly before the pointer-based rewrite, now it is load-bearing).
  assert(q.nx() == grid_.nx() && q.ny() == grid_.ny() && q.nz() == grid_.nz());
  assert(rhs.nx() == grid_.nx() && rhs.ny() == grid_.ny() &&
         rhs.nz() == grid_.nz());
  assert(q.ng() == sigma_.ng() && rhs.ng() == sigma_.ng());
  if (prepare) prepare_flux_pass(q);
  if (cfg_.fused_rhs) {
    // Stream the region in k-blocks: all three sweeps of a block run while
    // its planes are cache-resident.  Blocks partition the region, each
    // cell still sees exactly the x-overwrite → y → z accumulation of one
    // whole-region call, and every face flux is a pure function of its
    // stencil — so the split is bitwise-free, the same property the
    // interior/boundary overlap split relies on.  (The z seams re-evaluate
    // one face per block; flux_block() amortizes that.)
    const auto kz = static_cast<std::size_t>(2);
    const int B = flux_block();
    fv::dispatch_recon(recon_, [&](auto recon) {
      for (int b0 = reg.lo[kz]; b0 < reg.hi[kz]; b0 += B) {
        CellRegion sub = reg;
        sub.lo[kz] = b0;
        sub.hi[kz] = std::min(b0 + B, reg.hi[kz]);
        flux_stream_all(q, rhs, recon, sub);
      }
    });
    return;
  }
  fv::dispatch_recon(recon_,
                     [&](auto recon) { flux_stream_all(q, rhs, recon, reg); });
}

template <class Policy>
int IgrSolver3D<Policy>::flux_block() const {
  // The trailing RK update of block b-1 may only touch planes the z-flux
  // stencil of block b no longer reads, which needs B >= the stencil
  // radius (the field ghost depth).
  return std::max(cfg_.fused_flux_block, sigma_.ng());
}

template <class Policy>
void IgrSolver3D<Policy>::compute_fluxes(common::StateField3<S>& q,
                                         common::StateField3<S>& rhs) {
  compute_fluxes_region(q, rhs, full_region(), /*prepare=*/true);
}

template <class Policy>
CellRegion IgrSolver3D<Policy>::interior_flux_region(int axis) const {
  // Only the split axis is shaved: a flux line reads ghost planes of an
  // axis only through that axis' reconstruction stencil (tangential
  // coordinates of every line stay interior), so cells at least one ghost
  // depth away from the two `axis` faces touch no in-flight ghost.  The
  // margin is the field ghost depth — the stencil radius it was sized for
  // — so a deeper-ghosted future scheme keeps the no-ghost-read invariant
  // automatically.
  CellRegion r = full_region();
  const auto as = static_cast<std::size_t>(axis);
  const int margin = sigma_.ng();
  const int n = r.hi[as];
  r.lo[as] = std::min(margin, n);
  r.hi[as] = std::max(n - margin, r.lo[as]);
  return r;
}

template <class Policy>
void IgrSolver3D<Policy>::compute_fluxes_interior(common::StateField3<S>& q,
                                                  common::StateField3<S>& rhs,
                                                  int axis) {
  compute_fluxes_region(q, rhs, interior_flux_region(axis),
                        /*prepare=*/true);
}

template <class Policy>
void IgrSolver3D<Policy>::compute_fluxes_boundary(common::StateField3<S>& q,
                                                  common::StateField3<S>& rhs,
                                                  int axis) {
  // The complement of the interior region: the two slabs hugging the
  // `axis` faces, full extent on the other axes — disjoint from the
  // interior and from each other (degenerate for thin blocks, where the
  // low slab absorbs everything).
  const CellRegion in = interior_flux_region(axis);
  const auto as = static_cast<std::size_t>(axis);
  CellRegion low = full_region();
  low.hi[as] = in.lo[as];
  CellRegion high = full_region();
  high.lo[as] = in.hi[as];
  if (!low.empty()) compute_fluxes_region(q, rhs, low, /*prepare=*/false);
  if (!high.empty()) compute_fluxes_region(q, rhs, high, /*prepare=*/false);
}

template <class Policy>
void IgrSolver3D<Policy>::compute_rhs(common::StateField3<S>& q,
                                      common::StateField3<S>& rhs) {
  {
    common::PhaseScope t(profile_, common::PhaseProfile::kBc);
    apply_domain_bc(q);
  }

  if (alpha_ > 0.0 && cfg_.sigma_sweeps > 0) {
    {
      common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSource);
      build_sigma_source(q);
    }
    common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSweeps);
    for (int s = 0; s < cfg_.sigma_sweeps; ++s) {
      fill_sigma_ghosts(sigma_, sigma_bc_, 1);  // sweeps need one layer
      sigma_sweep(q);
    }
    fill_sigma_boundary();  // reconstruction needs the full depth
  } else {
    sigma_.fill(S{});
  }

  common::PhaseScope t(profile_, common::PhaseProfile::kFlux);
  compute_fluxes(q, rhs);
}

template <class Policy>
void IgrSolver3D<Policy>::compute_rhs_fused(common::StateField3<S>& q,
                                            common::StateField3<S>& rhs) {
  {
    common::PhaseScope t(profile_, common::PhaseProfile::kBc);
    apply_domain_bc(q);
  }
  fused_sigma_phase(q);
  common::PhaseScope t(profile_, common::PhaseProfile::kFlux);
  compute_fluxes(q, rhs);  // streams k-blocks under cfg.fused_rhs
}

template <class Policy>
void IgrSolver3D<Policy>::fused_sigma_phase(common::StateField3<S>& q) {
  if (!(alpha_ > 0.0 && cfg_.sigma_sweeps > 0)) {
    sigma_.fill(S{});
    return;
  }
  if (sigma_bc_.side(2, 0) == SigmaBc::kPeriodic ||
      sigma_bc_.side(2, 1) == SigmaBc::kPeriodic) {
    // A periodic Sigma wrap *along z* makes plane 0's sweep s read plane
    // nz-1's post-sweep-(s-1) values — which an ascending plane stream has
    // not produced yet when its front is near 0.  Sweeps stay phased here;
    // the interleaved source build and the streamed flux/RK stages still
    // apply.  Periodic x/y faces are no obstacle: their wraps are per-plane
    // rim fills reading the same plane's post-previous-sweep interior,
    // exactly the snapshot the phased fill takes.
    {
      common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSource);
      build_sigma_source(q);
    }
    common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSweeps);
    for (int s = 0; s < cfg_.sigma_sweeps; ++s) {
      fill_sigma_ghosts(sigma_, sigma_bc_, 1);
      sigma_sweep(q);
    }
    fill_sigma_boundary();
    return;
  }
  fused_sigma_pipeline(q);
}

/// The skewed plane wavefront: with S sweeps, the front f executes
///
///   source(f)                                  (in chunks, inv_rho ahead)
///   for s = 1..S:   color0(s, f - 2(s-1))  then  color1(s, f - 2s + 1)
///   final boundary fill of plane f - (2S - 1)
///
/// (Jacobi replaces the color pair with one pass at f - (s-1) and a final
/// fill at f - S + 1.)  Dependency check, writing c0/c1 for the red–black
/// half-passes (c0 updates parity (i+j+k) even+color offset, reading only
/// the opposite parity and vice versa):
///   - c0(s,k) reads the opposite parity of planes k-1..k+1 at
///     post-sweep-(s-1) values: c1(s,k-1) runs at front k+2s-2 — the same
///     front, in a later slot (s ascending, c0 before c1 ... of the same s,
///     and c1(s,k-1) belongs to slot s at front (k-1)+2s-1 = k+2s-2) — and
///     c1(s,k+1) at front k+2s, strictly later.  ✓
///   - c1(s,k) reads post-c0-of-sweep-s values of planes k-1..k+1:
///     c0(s,k+1) runs at the same front in the preceding slot.  ✓
///   - c0(s+1,k) needs c1(s,·) complete on k-1..k+1: latest is c1(s,k+1)
///     at front k+2s, while c0(s+1,k) runs at front k+2s — same front,
///     earlier sweep slot first.  ✓
/// Ghost handling: each sweep's one-layer rim fill of plane p runs in the
/// c0 slot (p is still entirely post-sweep-(s-1) there — the values the
/// phased per-sweep fill_sigma_ghosts snapshot holds), and the Neumann z
/// ghost planes are copied when the boundary planes 0 / nz-1 hit their c0
/// slot, again from post-(s-1) values.  Both colors then read that same
/// snapshot, exactly like the phased schedule.
template <class Policy>
void IgrSolver3D<Policy>::fused_sigma_pipeline(common::StateField3<S>& q) {
  const int nz = grid_.nz();
  const int ng = q.ng();
  const int sweeps = cfg_.sigma_sweeps;
  // The pipeline performs `sweeps` logical relaxation passes without going
  // through sigma_sweep(); credit them up front so the meter agrees with
  // the phased schedule.
  sigma_sweeps_done_ += static_cast<std::uint64_t>(sweeps);
  const bool rb = cfg_.sigma_gauss_seidel;
  const int depth = rb ? 2 * sweeps - 1 : sweeps - 1;
  const int chunk = std::max(flux_block(), 4);
  const C al = static_cast<C>(alpha_);
  const C dx = static_cast<C>(grid_.dx());
  const C dy = static_cast<C>(grid_.dy());
  const C dz = static_cast<C>(grid_.dz());

  int ir_hi = -ng;
  auto ensure_ir = [&](int upto) {  // exclusive
    upto = std::min(upto, nz + ng);
    if (upto > ir_hi) {
      // Attributed to the source phase like the phased schedule's
      // refresh-inside-build, so the breakdowns stay comparable.
      common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSource);
      refresh_inv_rho_planes(q, ir_hi, upto);
      ir_hi = upto;
    }
  };
  // Per-sweep ghost fills of one plane: the one-layer rim (wrapping or
  // clamping per x/y face) plus, on the boundary planes, the Neumann z
  // ghost snapshot (the pipeline gate guarantees both z faces clamp).
  auto sweep_ghosts = [&](common::Field3<S>& sig, int p, int layers) {
    fill_sigma_rim(sig, sigma_bc_, p, p + 1, layers);
    if (p == 0) fill_sigma_zghosts(sig, sigma_bc_, 0, layers);
    if (p == nz - 1) fill_sigma_zghosts(sig, sigma_bc_, 1, layers);
  };

  common::Field3<S>& fin =
      (!rb && (sweeps % 2 == 1)) ? sigma_scratch_ : sigma_;

  for (int f = 0; f <= nz - 1 + depth; ++f) {
    if (f < nz && f % chunk == 0) {
      const int c1 = std::min(f + chunk, nz);
      ensure_ir(c1 + 1);
      common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSource);
      compute_sigma_source_planes(q, f, c1);
    }
    common::PhaseScope t(profile_, common::PhaseProfile::kSigmaSweeps);
    for (int s = 1; s <= sweeps; ++s) {
      if (rb) {
        const int p0 = f - 2 * (s - 1);
        if (p0 >= 0 && p0 < nz) {
          sweep_ghosts(sigma_, p0, 1);
          sigma_relax_planes<Policy>(sigma_, sigma_src_, inv_rho_, al, dx, dy,
                                     dz, /*color=*/0, p0, p0 + 1,
                                     cfg_.exec());
        }
        const int p1 = f - (2 * s - 1);
        if (p1 >= 0 && p1 < nz) {
          sigma_relax_planes<Policy>(sigma_, sigma_src_, inv_rho_, al, dx, dy,
                                     dz, /*color=*/1, p1, p1 + 1,
                                     cfg_.exec());
        }
      } else {
        const int p = f - (s - 1);
        if (p >= 0 && p < nz) {
          // Sweep s reads the buffer sweep s-1 wrote (sigma_ first) and
          // writes the other; one swap at the end mirrors the phased
          // per-sweep field swaps.
          auto& in = (s % 2 == 1) ? sigma_ : sigma_scratch_;
          auto& out = (s % 2 == 1) ? sigma_scratch_ : sigma_;
          sweep_ghosts(in, p, 1);
          sigma_jacobi_planes<Policy>(out, in, sigma_src_, inv_rho_, al, dx,
                                      dy, dz, p, p + 1, cfg_.exec());
        }
      }
    }
    const int pf = f - depth;
    if (pf >= 0 && pf < nz) {
      sweep_ghosts(fin, pf, -1);  // reconstruction needs the full depth
    }
  }
  ensure_ir(nz + ng);  // trailing ghost planes (viscous transverse taps)
  if (!rb && (sweeps % 2 == 1)) std::swap(sigma_, sigma_scratch_);
}

template <class Policy>
void IgrSolver3D<Policy>::begin_step() {
  qstage_ = q_;
}

template <class Policy>
void IgrSolver3D<Policy>::rk_update_planes(const fv::Rk3Stage& st, double dt,
                                           int k0, int k1) {
  const int nx = grid_.nx(), ny = grid_.ny();
  const C a = static_cast<C>(st.a);
  const C b = static_cast<C>(st.b);
  const C dtc = static_cast<C>(dt);
  if constexpr (common::converts_storage<Policy>) {
    // Row-batched update: 3 batch loads + 1 batch store per component row
    // replace 3 scalar conversions + 1 round-trip per element.
    const std::size_t nxs = static_cast<std::size_t>(nx);
    cfg_.exec().run_team([&](const common::ExecSpace::Team& t) {
      std::vector<C> qn_row(nxs), qs_row(nxs), r_row(nxs);
      long cb, ce;
      t.chunk(k1 - k0, cb, ce);
      for (long kk = cb; kk < ce; ++kk) {
        const int k = k0 + static_cast<int>(kk);
        for (int j = 0; j < ny; ++j) {
          for (int c = 0; c < kNumVars; ++c) {
            common::load_line<Policy>(q_[c].row(j, k), qn_row.data(), nxs);
            common::load_line<Policy>(qstage_[c].row(j, k), qs_row.data(),
                                      nxs);
            common::load_line<Policy>(rhs_[c].row(j, k), r_row.data(), nxs);
            for (std::size_t i = 0; i < nxs; ++i)
              qs_row[i] = a * qn_row[i] + b * (qs_row[i] + dtc * r_row[i]);
            common::store_line<Policy>(qs_row.data(), qstage_[c].row(j, k),
                                       nxs);
          }
        }
      }
    });
  } else {
    // Row-pointer form (restrict: the three fields never alias) so the
    // update vectorizes; the per-element expression is unchanged and cells
    // are independent, so the c-outer order writes the same bits.
    cfg_.exec().for_each(k1 - k0, [&](long kk) {
      const int k = k0 + static_cast<int>(kk);
      for (int j = 0; j < ny; ++j) {
        for (int c = 0; c < kNumVars; ++c) {
          const S* __restrict qn_row = q_[c].row(j, k);
          S* __restrict qs_row = qstage_[c].row(j, k);
          const S* __restrict r_row = rhs_[c].row(j, k);
          for (int i = 0; i < nx; ++i) {
            const C qn = static_cast<C>(qn_row[i]);
            const C qs = static_cast<C>(qs_row[i]);
            const C r = static_cast<C>(r_row[i]);
            qs_row[i] = static_cast<S>(a * qn + b * (qs + dtc * r));
          }
        }
      }
    });
  }
}

template <class Policy>
void IgrSolver3D<Policy>::rk_update(const fv::Rk3Stage& st, double dt) {
  rk_update_planes(st, dt, 0, grid_.nz());
}

template <class Policy>
void IgrSolver3D<Policy>::rk_stage1_planes(double dt, int k0, int k1) {
  const int nx = grid_.nx(), ny = grid_.ny();
  const C dtc = static_cast<C>(dt);
  if constexpr (common::converts_storage<Policy>) {
    const std::size_t nxs = static_cast<std::size_t>(nx);
    cfg_.exec().run_team([&](const common::ExecSpace::Team& t) {
      std::vector<C> qn_row(nxs), r_row(nxs);
      long cb, ce;
      t.chunk(k1 - k0, cb, ce);
      for (long kk = cb; kk < ce; ++kk) {
        const int k = k0 + static_cast<int>(kk);
        for (int j = 0; j < ny; ++j) {
          for (int c = 0; c < kNumVars; ++c) {
            common::load_line<Policy>(q_[c].row(j, k), qn_row.data(), nxs);
            common::load_line<Policy>(rhs_[c].row(j, k), r_row.data(), nxs);
            for (std::size_t i = 0; i < nxs; ++i)
              qn_row[i] = qn_row[i] + dtc * r_row[i];
            common::store_line<Policy>(qn_row.data(), qstage_[c].row(j, k),
                                       nxs);
          }
        }
      }
    });
  } else {
    cfg_.exec().for_each(k1 - k0, [&](long kk) {
      const int k = k0 + static_cast<int>(kk);
      for (int j = 0; j < ny; ++j) {
        for (int c = 0; c < kNumVars; ++c) {
          const S* __restrict qn_row = q_[c].row(j, k);
          const S* __restrict r_row = rhs_[c].row(j, k);
          S* __restrict qs_row = qstage_[c].row(j, k);
          for (int i = 0; i < nx; ++i) {
            const C qn = static_cast<C>(qn_row[i]);
            const C r = static_cast<C>(r_row[i]);
            qs_row[i] = static_cast<S>(qn + dtc * r);
          }
        }
      }
    });
  }
}

template <class Policy>
void IgrSolver3D<Policy>::fused_flux_rk(common::StateField3<S>& q,
                                        common::StateField3<S>& rhs,
                                        const fv::Rk3Stage& st, double dt,
                                        bool first_stage, bool accumulate_dt) {
  assert(q.nx() == grid_.nx() && q.ny() == grid_.ny() && q.nz() == grid_.nz());
  assert(q.ng() == sigma_.ng() && rhs.ng() == sigma_.ng());
  const int nz = grid_.nz();
  const int B = flux_block();

  // The RK write-back trails the flux front by one block: the z-flux lines
  // of block b read state planes down to b*B - 3, so once block b is swept,
  // every plane of block b-1 is out of every remaining stencil (B >= 3) and
  // can be committed.  On the first stage the flux input is q_ while the
  // update writes qstage_, so there is no overlap at all — the same lag is
  // kept for uniformity.  The final stage folds the CFL reduction for the
  // next step's dt into the same trailing slot, where the block's new state
  // and its (final, warm-start) Sigma are both hot.
  auto commit_block = [&](int k0, int k1) {
    common::PhaseScope t(profile_, common::PhaseProfile::kRkDt);
    if (first_stage) {
      rk_stage1_planes(dt, k0, k1);
    } else {
      rk_update_planes(st, dt, k0, k1);
    }
    if (accumulate_dt) {
      fv::accumulate_cfl_rates(qstage_, grid_, eos_, cfg_, &sigma_, k0, k1,
                               dt_rates_);
    }
  };

  prepare_flux_pass(q);
  fv::dispatch_recon(recon_, [&](auto recon) {
    int prev = -1;
    for (int b0 = 0; b0 < nz; b0 += B) {
      const int b1 = std::min(b0 + B, nz);
      {
        common::PhaseScope t(profile_, common::PhaseProfile::kFlux);
        CellRegion reg = full_region();
        reg.lo[2] = b0;
        reg.hi[2] = b1;
        flux_stream_all(q, rhs, recon, reg);
      }
      if (prev >= 0) commit_block(prev, b0);
      prev = b0;
    }
    commit_block(prev, nz);
  });
}

template <class Policy>
void IgrSolver3D<Policy>::finish_step(double dt) {
  std::swap(q_, qstage_);
  time_ += dt;
}

template <class Policy>
void IgrSolver3D<Policy>::step_fixed_fused(double dt) {
  grind_.begin_step();
  dt_rates_ = fv::CflRates{};
  for (int si = 0; si < 3; ++si) {
    // Stage 1 evaluates the RHS on q_ directly and writes the stage
    // register from it (rk_stage1_planes), eliding begin_step's 5N copy;
    // stages 2-3 advance the register in place as usual.
    auto& qs = (si == 0) ? q_ : qstage_;
    {
      common::PhaseScope t(profile_, common::PhaseProfile::kBc);
      apply_domain_bc(qs);
    }
    fused_sigma_phase(qs);
    fused_flux_rk(qs, rhs_, fv::kRk3Stages[static_cast<std::size_t>(si)], dt,
                  /*first_stage=*/si == 0, /*accumulate_dt=*/si == 2);
  }
  finish_step(dt);
  next_dt_ = fv::cfl_dt_from_rates(dt_rates_, grid_, cfg_);
  next_dt_valid_ = true;
  grind_.end_step();
}

template <class Policy>
void IgrSolver3D<Policy>::step_fixed(double dt) {
  if (cfg_.fused_rhs) {
    step_fixed_fused(dt);
    return;
  }
  grind_.begin_step();
  begin_step();
  for (const auto& st : fv::kRk3Stages) {
    compute_rhs(qstage_, rhs_);
    common::PhaseScope t(profile_, common::PhaseProfile::kRkDt);
    rk_update(st, dt);
  }
  finish_step(dt);
  grind_.end_step();
}

template <class Policy>
double IgrSolver3D<Policy>::step() {
  // The warm-start Sigma from the previous step feeds the wave-speed bound.
  // A fused previous step already folded this exact reduction — same state,
  // same Sigma, exact max/min — into its final RK traversal.
  if (cfg_.fused_rhs && next_dt_valid_) {
    const double dt = next_dt_;
    step_fixed(dt);
    return dt;
  }
  double dt;
  {
    common::PhaseScope t(profile_, common::PhaseProfile::kRkDt);
    dt = fv::compute_dt(q_, grid_, eos_, cfg_, &sigma_);
  }
  step_fixed(dt);
  return dt;
}

template <class Policy>
std::size_t IgrSolver3D<Policy>::memory_bytes() const {
  return q_.bytes() + qstage_.bytes() + rhs_.bytes() + sigma_.bytes() +
         sigma_src_.bytes() + sigma_scratch_.bytes() + inv_rho_.bytes();
}

template <class Policy>
double IgrSolver3D<Policy>::storage_per_cell() const {
  // 5 state + 5 RK register + 5 RHS + Sigma + Sigma source (+ Jacobi copy),
  // plus the CPU-only reciprocal-density scratch (the paper's fused GPU
  // kernel stays at 17N by recomputing reciprocals in registers, §5.2).
  return 18.0 + (cfg_.sigma_gauss_seidel ? 0.0 : 1.0);
}

template <class Policy>
common::Cons<double> IgrSolver3D<Policy>::conserved_totals() const {
  const int nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const double dv = grid_.dx() * grid_.dy() * grid_.dz();
  common::Cons<double> tot{};
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        for (int c = 0; c < kNumVars; ++c)
          tot[c] += static_cast<double>(q_[c](i, j, k)) * dv;
      }
    }
  }
  return tot;
}

template class IgrSolver3D<common::Fp64>;
template class IgrSolver3D<common::Fp32>;
template class IgrSolver3D<common::Fp16x32>;
template class IgrSolver3D<common::Bf16x32>;

}  // namespace igr::core

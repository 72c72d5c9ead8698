#include "baseline/weno_hllc_solver3d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/half.hpp"
#include "fv/cfl.hpp"
#include "fv/reconstruct.hpp"
#include "fv/riemann.hpp"
#include "fv/rk3.hpp"
#include "fv/viscous.hpp"

namespace igr::baseline {

namespace {
using common::kMomX;
using common::kNumVars;
using common::kRho;
}  // namespace

template <class Policy>
WenoHllcSolver3D<Policy>::WenoHllcSolver3D(const mesh::Grid& grid,
                                           const common::SolverConfig& cfg,
                                           fv::BcSpec bc)
    : grid_(grid),
      cfg_(cfg),
      bc_(std::move(bc)),
      eos_(cfg.gamma),
      q_(grid.nx(), grid.ny(), grid.nz(), 3),
      qstage_(grid.nx(), grid.ny(), grid.nz(), 3),
      rhs_(grid.nx(), grid.ny(), grid.nz(), 3),
      face_l_(grid.nx() + 1, grid.ny() + 1, grid.nz() + 1, 0),
      face_r_(grid.nx() + 1, grid.ny() + 1, grid.nz() + 1, 0),
      face_flux_(grid.nx() + 1, grid.ny() + 1, grid.nz() + 1, 0) {
  cfg_.validate();
}

template <class Policy>
void WenoHllcSolver3D<Policy>::init(const PrimFn& prim) {
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
  time_ = 0.0;
}

template <class Policy>
void WenoHllcSolver3D<Policy>::flux_sweep(common::StateField3<S>& q,
                                          common::StateField3<S>& rhs,
                                          int dir, bool overwrite) {
  const int nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  const int n_dir = (dir == 0) ? nx : (dir == 1) ? ny : nz;
  const C d_dir = static_cast<C>((dir == 0)   ? grid_.dx()
                                 : (dir == 1) ? grid_.dy()
                                              : grid_.dz());
  const C inv_d = C(1) / d_dir;
  const C gam = static_cast<C>(cfg_.gamma);
  const C mu = static_cast<C>(cfg_.mu);
  const C zeta = static_cast<C>(cfg_.zeta);
  const bool viscous = (cfg_.mu > 0.0 || cfg_.zeta > 0.0);
  const std::array<C, 3> dd{static_cast<C>(grid_.dx()),
                            static_cast<C>(grid_.dy()),
                            static_cast<C>(grid_.dz())};

  auto cell = [&](int la, int lb, int s) -> std::array<int, 3> {
    switch (dir) {
      case 0: return {s, la, lb};
      case 1: return {la, s, lb};
      default: return {la, lb, s};
    }
  };
  const int na = (dir == 0) ? ny : nx;
  const int nb = (dir == 2) ? ny : nz;

  auto vel = [&](int a, const std::array<int, 3>& c) -> C {
    return static_cast<C>(q[kMomX + a](c[0], c[1], c[2])) /
           static_cast<C>(q[kRho](c[0], c[1], c[2]));
  };
  auto dvel = [&](int a, int ax, std::array<int, 3> c) -> C {
    auto cp = c, cm = c;
    cp[static_cast<std::size_t>(ax)] += 1;
    cm[static_cast<std::size_t>(ax)] -= 1;
    return (vel(a, cp) - vel(a, cm)) /
           (C(2) * dd[static_cast<std::size_t>(ax)]);
  };

  // Pass 1 (stored, array-based): WENO5 reconstruction of both face states,
  // written to full face fields — the conventional structure whose stored
  // intermediates the IGR fused kernel eliminates (§5.4).  Lines are
  // gathered into contiguous buffers before reconstruction.
#pragma omp parallel
  {
    const std::size_t line_len = static_cast<std::size_t>(n_dir) + 6;
    std::vector<C> lines(static_cast<std::size_t>(kNumVars) * line_len);

#pragma omp for collapse(2)
    for (int lb = 0; lb < nb; ++lb) {
      for (int la = 0; la < na; ++la) {
        const auto c0 = cell(la, lb, 0);
        for (int c = 0; c < kNumVars; ++c) {
          const S* p = &q[c](c0[0], c0[1], c0[2]);
          const std::ptrdiff_t st = q[c].stride(dir);
          C* line = lines.data() + static_cast<std::size_t>(c) * line_len;
          for (int s = -3; s < n_dir + 3; ++s)
            line[s + 3] = static_cast<C>(p[s * st]);
        }
        for (int c = 0; c < kNumVars; ++c) {
          S* pl = &face_l_[c](c0[0], c0[1], c0[2]);
          S* pr = &face_r_[c](c0[0], c0[1], c0[2]);
          const std::ptrdiff_t fst = face_l_[c].stride(dir);
          const C* line =
              lines.data() + static_cast<std::size_t>(c) * line_len;
          // The baseline always runs WENO5; bind it at compile time so the
          // nonlinear-weight arithmetic inlines into this loop instead of
          // re-dispatching through the scheme switch per face.
          for (int fi = 0; fi <= n_dir; ++fi) {
            const auto f =
                fv::reconstruct_fixed<fv::ReconScheme::kWeno5>(line + fi);
            pl[fi * fst] = static_cast<S>(f.left);
            pr[fi * fst] = static_cast<S>(f.right);
          }
        }
      }
    }
  }

  // Pass 2 (stored): HLLC flux (+ viscous contribution) at each face.
#pragma omp parallel for collapse(2)
  for (int lb = 0; lb < nb; ++lb) {
    for (int la = 0; la < na; ++la) {
      const auto c0l = cell(la, lb, 0);
      const std::ptrdiff_t fst = face_l_[0].stride(dir);
      for (int fi = 0; fi <= n_dir; ++fi) {
        common::Cons<C> ql, qr;
        for (int c = 0; c < kNumVars; ++c) {
          const S* pl = &face_l_[c](c0l[0], c0l[1], c0l[2]);
          const S* pr = &face_r_[c](c0l[0], c0l[1], c0l[2]);
          ql[c] = static_cast<C>(pl[fi * fst]);
          qr[c] = static_cast<C>(pr[fi * fst]);
        }
        ql.rho = std::max(ql.rho, C(1e-12));
        qr.rho = std::max(qr.rho, C(1e-12));
        auto wl = eos_.to_prim(ql);
        auto wr = eos_.to_prim(qr);
        wl.p = std::max(wl.p, C(0));
        wr.p = std::max(wr.p, C(0));
        auto f = fv::hllc_flux(wl, ql.e, wr, qr.e, gam, dir);

        if (viscous) {
          const int i = fi - 1;
          const auto c0 = cell(la, lb, i);
          const auto c1 = cell(la, lb, i + 1);
          fv::VelGrad<C> g;
          C uf[3];
          for (int a = 0; a < 3; ++a) {
            uf[a] = C(0.5) * (vel(a, c0) + vel(a, c1));
            for (int ax = 0; ax < 3; ++ax) {
              if (ax == dir) {
                g.g[a][ax] = (vel(a, c1) - vel(a, c0)) * inv_d;
              } else {
                g.g[a][ax] = C(0.5) * (dvel(a, ax, c0) + dvel(a, ax, c1));
              }
            }
          }
          const auto fvisc = fv::viscous_flux(g, uf, mu, zeta, dir);
          for (int c = 0; c < kNumVars; ++c) f[c] += fvisc[c];
        }

        for (int c = 0; c < kNumVars; ++c) {
          S* pf = &face_flux_[c](c0l[0], c0l[1], c0l[2]);
          pf[fi * fst] = static_cast<S>(f[c]);
        }
      }
    }
  }

  // Pass 3: flux divergence into the RHS (the first sweep overwrites,
  // folding the per-stage zero-fill into its write-back).
#pragma omp parallel for collapse(2)
  for (int lb = 0; lb < nb; ++lb) {
    for (int la = 0; la < na; ++la) {
      const auto c0 = cell(la, lb, 0);
      for (int c = 0; c < kNumVars; ++c) {
        S* pr = &rhs[c](c0[0], c0[1], c0[2]);
        const S* pf = &face_flux_[c](c0[0], c0[1], c0[2]);
        const std::ptrdiff_t rst = rhs[c].stride(dir);
        const std::ptrdiff_t fst = face_flux_[c].stride(dir);
        if (overwrite) {
          for (int s = 0; s < n_dir; ++s) {
            const C fa = static_cast<C>(pf[s * fst]);
            const C fb = static_cast<C>(pf[(s + 1) * fst]);
            pr[s * rst] = static_cast<S>((fa - fb) * inv_d);
          }
        } else {
          for (int s = 0; s < n_dir; ++s) {
            const C cur = static_cast<C>(pr[s * rst]);
            const C fa = static_cast<C>(pf[s * fst]);
            const C fb = static_cast<C>(pf[(s + 1) * fst]);
            pr[s * rst] = static_cast<S>(cur + (fa - fb) * inv_d);
          }
        }
      }
    }
  }
}

template <class Policy>
void WenoHllcSolver3D<Policy>::compute_rhs(common::StateField3<S>& q,
                                           common::StateField3<S>& rhs) {
  fv::apply_bc(q, bc_, grid_, eos_);
  for (int dir = 0; dir < 3; ++dir)
    flux_sweep(q, rhs, dir, /*overwrite=*/dir == 0);
}

template <class Policy>
void WenoHllcSolver3D<Policy>::step_fixed(double dt) {
  const int nx = grid_.nx(), ny = grid_.ny(), nz = grid_.nz();
  qstage_ = q_;
  for (const auto& st : fv::kRk3Stages) {
    compute_rhs(qstage_, rhs_);
    const C a = static_cast<C>(st.a);
    const C b = static_cast<C>(st.b);
    const C dtc = static_cast<C>(dt);
#pragma omp parallel for
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          for (int c = 0; c < kNumVars; ++c) {
            const C qn = static_cast<C>(q_[c](i, j, k));
            const C qs = static_cast<C>(qstage_[c](i, j, k));
            const C r = static_cast<C>(rhs_[c](i, j, k));
            qstage_[c](i, j, k) = static_cast<S>(a * qn + b * (qs + dtc * r));
          }
        }
      }
    }
  }
  std::swap(q_, qstage_);
  time_ += dt;
}

template <class Policy>
double WenoHllcSolver3D<Policy>::step() {
  const double dt = fv::compute_dt(q_, grid_, eos_, cfg_);
  step_fixed(dt);
  return dt;
}

template <class Policy>
std::size_t WenoHllcSolver3D<Policy>::memory_bytes() const {
  return q_.bytes() + qstage_.bytes() + rhs_.bytes() + face_l_.bytes() +
         face_r_.bytes() + face_flux_.bytes();
}

template <class Policy>
double WenoHllcSolver3D<Policy>::storage_per_cell() const {
  // 5 each: state, RK register, RHS, face-left, face-right, face-flux.
  return 30.0;
}

template <class Policy>
common::Cons<double> WenoHllcSolver3D<Policy>::conserved_totals() const {
  return common::conserved_totals(q_, grid_.dx() * grid_.dy() * grid_.dz());
}

template class WenoHllcSolver3D<common::Fp64>;
template class WenoHllcSolver3D<common::Fp32>;
// Instantiated so the generic Simulation driver links; the driver refuses to
// construct it (WENO/HLLC is numerically unstable below FP64, §4.3).
template class WenoHllcSolver3D<common::Fp16x32>;
template class WenoHllcSolver3D<common::Bf16x32>;

}  // namespace igr::baseline

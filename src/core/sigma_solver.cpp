#include "core/sigma_solver.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/half.hpp"

namespace igr::core {

namespace {

/// The eleven compute-precision rows one relax row consumes: sigma and
/// reciprocal density at (j, k), (j∓1, k), (j, k∓1), plus the source row.
/// Every row starts at i = -1 (`row_len` = nx + 2), so the i∓1 taps of
/// the center rows are in-row; neighbor rows only ever tap their center
/// element.
template <class C>
struct StencilRows {
  const C* sg_c;
  const C* sg_jm;
  const C* sg_jp;
  const C* sg_km;
  const C* sg_kp;
  const C* ir_c;
  const C* ir_jm;
  const C* ir_jp;
  const C* ir_km;
  const C* ir_kp;
  const C* src_c;
};

/// The 7-point relaxation update of eq. (9) for a whole row, i ∈ [0, nx).
/// Face coefficients are arithmetic means of the *reciprocal* densities —
/// i.e. 1/rho_face with rho_face the harmonic mean of the two cell
/// densities (the intended discretization: division-free given the
/// precomputed 1/rho field, and symmetric; see sigma_solver.hpp).  One
/// division per cell, the diagonal solve.  Contiguous in i with no
/// loop-carried dependence, so the loop and its divide vectorize; lanes are
/// independent, so a red–black caller that keeps only the updated colour's
/// lanes stores exactly the per-cell result.
template <class C>
inline void relax_row(const StencilRows<C>& b, int nx, C alpha, C inv_dx2,
                      C inv_dy2, C inv_dz2, C* __restrict out) {
  // Eleven independent row pointers exceed the vectorizer's runtime
  // alias-versioning budget.  Nothing is written through them here (`out`
  // is member-private scratch), so __restrict locals are sound and let the
  // loop vectorize.  Offset by +1: rows start at i = -1.
  const C* __restrict sgc = b.sg_c + 1;
  const C* __restrict sgjm = b.sg_jm + 1;
  const C* __restrict sgjp = b.sg_jp + 1;
  const C* __restrict sgkm = b.sg_km + 1;
  const C* __restrict sgkp = b.sg_kp + 1;
  const C* __restrict irc = b.ir_c + 1;
  const C* __restrict irjm = b.ir_jm + 1;
  const C* __restrict irjp = b.ir_jp + 1;
  const C* __restrict irkm = b.ir_km + 1;
  const C* __restrict irkp = b.ir_kp + 1;
  const C* __restrict srcc = b.src_c + 1;
  for (int i = 0; i < nx; ++i) {
    const C ir0 = irc[i];
    const C cxm = C(0.5) * (ir0 + irc[i - 1]);
    const C cxp = C(0.5) * (ir0 + irc[i + 1]);
    const C cym = C(0.5) * (ir0 + irjm[i]);
    const C cyp = C(0.5) * (ir0 + irjp[i]);
    const C czm = C(0.5) * (ir0 + irkm[i]);
    const C czp = C(0.5) * (ir0 + irkp[i]);

    const C off = inv_dx2 * (sgc[i + 1] * cxp + sgc[i - 1] * cxm) +
                  inv_dy2 * (sgjp[i] * cyp + sgjm[i] * cym) +
                  inv_dz2 * (sgkp[i] * czp + sgkm[i] * czm);
    const C diag = ir0 + alpha * (inv_dx2 * (cxp + cxm) +
                                  inv_dy2 * (cyp + cym) +
                                  inv_dz2 * (czp + czm));
    out[i] = (srcc[i] + alpha * off) / diag;
  }
}

/// Stencil rows of identity storage: the field rows themselves.
template <class Policy>
class FieldRows {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  static_assert(std::is_same_v<S, C>);

 public:
  FieldRows(const common::Field3<S>& src, const common::Field3<S>& inv_rho)
      : src_(src), inv_rho_(inv_rho) {}

  StencilRows<C> fetch(const common::Field3<S>& sig, int j, int k) const {
    // The fields share one shape, so one offset locates all eleven rows.
    const std::size_t o = sig.idx(-1, j, k);
    const std::ptrdiff_t sy = sig.stride(1), sz = sig.stride(2);
    const S* s = sig.data() + o;
    const S* r = inv_rho_.data() + o;
    return {s,      s - sy, s + sy, s - sz, s + sz,           r,
            r - sy, r + sy, r - sz, r + sz, src_.data() + o};
  }

 private:
  const common::Field3<S>& src_;
  const common::Field3<S>& inv_rho_;
};

/// Stencil rows of 16-bit storage, converted to compute precision by the
/// batched conversion lanes.  The sigma and reciprocal-density rows of the
/// current plane (j ∈ [-1, ny]) go through a get-or-convert slot per row,
/// so adjacent (j, k) visits reuse the rows they share: a j walk converts
/// each plane row once instead of three times.  The single-use rows —
/// sigma/inv_rho at the k∓1 planes and the source — are converted per visit.
/// (Scratch is 2 fields × (ny + 2) rows per team member, of which only the
/// stencil's three rows are hot at a time.)  Slots are per member and per
/// plane, and each plane is relaxed by one member, so no slot is shared
/// between members or across a phase barrier.
///
/// Red–black staleness note: the in-place colour pass stores into rows
/// already converted here, so a slot can be stale in the *updated*
/// colour's lanes.  Those lanes are never consumed: every tap feeding a
/// stored value reads the opposite parity ((i+j+k) of each stencil
/// neighbour flips), which the colour pass does not write, so the stored
/// bits equal a fresh conversion's (tests/test_mixed_precision_step.cpp
/// asserts the end-to-end consequence).  A slot must never survive into
/// the *next* colour or sweep, whose taps do consume the previous pass's
/// writes: every kernel call builds its own.
template <class Policy>
class GatheredRows {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;

 public:
  GatheredRows(const common::Field3<S>& src, const common::Field3<S>& inv_rho)
      : src_(src),
        inv_rho_(inv_rho),
        row_len_(static_cast<std::size_t>(src.nx()) + 2),
        num_rows_(static_cast<std::size_t>(src.ny()) + 2),
        held_(2 * num_rows_, kEmpty),
        slots_(new C[2 * num_rows_ * row_len_]),
        aux_(5 * row_len_) {}

  StencilRows<C> fetch(const common::Field3<S>& sig, int j, int k) {
    if (k != k_) {  // a new plane: forget every slot
      k_ = k;
      std::fill(held_.begin(), held_.end(), kEmpty);
    }
    StencilRows<C> r{};
    r.sg_c = slot(sig, 0, j);
    r.sg_jm = slot(sig, 0, j - 1);
    r.sg_jp = slot(sig, 0, j + 1);
    r.ir_c = slot(inv_rho_, 1, j);
    r.ir_jm = slot(inv_rho_, 1, j - 1);
    r.ir_jp = slot(inv_rho_, 1, j + 1);
    C* a = aux_.data();
    r.sg_km = line(sig, j, k - 1, a);
    r.sg_kp = line(sig, j, k + 1, a + row_len_);
    r.ir_km = line(inv_rho_, j, k - 1, a + 2 * row_len_);
    r.ir_kp = line(inv_rho_, j, k + 1, a + 3 * row_len_);
    r.src_c = line(src_, j, k, a + 4 * row_len_);
    return r;
  }

 private:
  static constexpr int kEmpty = INT_MIN;

  const C* line(const common::Field3<S>& f, int j, int k, C* dst) const {
    common::load_line<Policy>(&f(-1, j, k), dst, row_len_);
    return dst;
  }

  const C* slot(const common::Field3<S>& f, int which, int j) {
    const std::size_t s = static_cast<std::size_t>(which) * num_rows_ +
                          static_cast<std::size_t>(j + 1);
    C* dst = slots_.get() + s * row_len_;
    if (held_[s] != j) {
      line(f, j, k_, dst);
      held_[s] = j;
    }
    return dst;
  }

  const common::Field3<S>& src_;
  const common::Field3<S>& inv_rho_;
  std::size_t row_len_;
  std::size_t num_rows_;
  int k_ = kEmpty;
  std::vector<int> held_;
  std::unique_ptr<C[]> slots_;  // not zeroed: read only once converted into
  std::vector<C> aux_;
};

/// One team member's row relaxer, the body both kernels share: fetch row
/// (j, k)'s stencil (field rows, or converted rows for 16-bit storage),
/// evaluate relax_row into member-private scratch, then store the whole row
/// (a Jacobi pass) or one colour's lanes (a red–black pass).
template <class Policy>
class RowRelax {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;

 public:
  RowRelax(const common::Field3<S>& src, const common::Field3<S>& inv_rho,
           C alpha, C dx, C dy, C dz)
      : rows_(src, inv_rho),
        nx_(src.nx()),
        alpha_(alpha),
        inv_dx2_(C(1) / (dx * dx)),
        inv_dy2_(C(1) / (dy * dy)),
        inv_dz2_(C(1) / (dz * dz)),
        tmp_(static_cast<std::size_t>(nx_)),
        kept_((static_cast<std::size_t>(nx_) + 1) / 2) {}

  /// Relax row (j, k) of `sig` into the scratch row.
  void relax(const common::Field3<S>& sig, int j, int k) {
    relax_row<C>(rows_.fetch(sig, j, k), nx_, alpha_, inv_dx2_, inv_dy2_,
                 inv_dz2_, tmp_.data());
  }

  /// Store the whole scratch row into row (j, k) of `dst`.
  void store_row(common::Field3<S>& dst, int j, int k) const {
    common::store_line<Policy>(tmp_.data(), dst.row(j, k),
                               static_cast<std::size_t>(nx_));
  }

  /// Store lanes i0, i0 + 2, ... of the scratch row into row (j, k) of
  /// `dst`: one batch conversion of the compacted lanes for 16-bit storage,
  /// plain copies otherwise.
  void store_color(common::Field3<S>& dst, int j, int k, int i0) {
    if constexpr (common::converts_storage<Policy>) {
      std::size_t m = 0;
      for (int i = i0; i < nx_; i += 2) kept_[m++] = tmp_[i];
      if (m > 0)
        common::store_line_strided<Policy>(kept_.data(), &dst(i0, j, k), 2,
                                           m);
    } else {
      S* d = dst.row(j, k);
      for (int i = i0; i < nx_; i += 2) d[i] = tmp_[i];
    }
  }

 private:
  std::conditional_t<common::converts_storage<Policy>, GatheredRows<Policy>,
                     FieldRows<Policy>>
      rows_;
  int nx_;
  C alpha_, inv_dx2_, inv_dy2_, inv_dz2_;
  std::vector<C> tmp_;
  std::vector<C> kept_;
};

}  // namespace

template <class Policy>
void sigma_relax_planes(common::Field3<typename Policy::storage_t>& sigma,
                        const common::Field3<typename Policy::storage_t>& src,
                        const common::Field3<typename Policy::storage_t>& inv_rho,
                        typename Policy::compute_t alpha,
                        typename Policy::compute_t dx,
                        typename Policy::compute_t dy,
                        typename Policy::compute_t dz, int color,
                        const common::ExecSpace& exec) {
  // Two phases, each split between the members in contiguous chunks of
  // whole planes: phase 0 relaxes the even planes, phase 1 the odd ones.  A
  // row's whole-row evaluation reads rows j∓1 and k∓1 at every column.
  // Rows k∓1 lie in planes of the other phase, and rows j∓1 in the same
  // plane, which one member relaxes, so the planes of one phase may update
  // concurrently; the team barrier orders the phases.  (Splitting the rows
  // of every plane by the parity of j + k would also be race-free, but it
  // loads, and for 16-bit storage converts, each plane's stencil rows once
  // per phase instead of once per pass; whole-block passes measured 11–43%
  // slower that way on a 4-core Xeon with GCC 12.2, see PERF.md.)  Which
  // lanes a row stores does not depend on the schedule: a stored lane reads
  // only the other colour, which this pass never writes, so no order of the
  // rows can move a bit.
  const int ny = sigma.ny(), nz = sigma.nz();
  exec.run_team([&](const common::ExecSpace::Team& t) {
    RowRelax<Policy> rr(src, inv_rho, alpha, dx, dy, dz);
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) t.barrier();
      long cb, ce;
      t.chunk((nz - phase + 1) / 2, cb, ce);
      for (long c = cb; c < ce; ++c) {
        const int k = phase + 2 * static_cast<int>(c);
        for (int j = 0; j < ny; ++j) {
          rr.relax(sigma, j, k);
          rr.store_color(sigma, j, k, (color + j + k) & 1);
        }
      }
    }
  });
}

template <class Policy>
void sigma_jacobi_planes(common::Field3<typename Policy::storage_t>& out,
                         const common::Field3<typename Policy::storage_t>& in,
                         const common::Field3<typename Policy::storage_t>& src,
                         const common::Field3<typename Policy::storage_t>& inv_rho,
                         typename Policy::compute_t alpha,
                         typename Policy::compute_t dx,
                         typename Policy::compute_t dy,
                         typename Policy::compute_t dz,
                         const common::ExecSpace& exec) {
  // Contiguous chunks of the rows (j, k); writes are disjoint rows of `out`.
  const int ny = out.ny();
  const long rows = static_cast<long>(out.nz()) * ny;
  exec.run_team([&](const common::ExecSpace::Team& t) {
    RowRelax<Policy> rr(src, inv_rho, alpha, dx, dy, dz);
    long cb, ce;
    t.chunk(rows, cb, ce);
    for (long r = cb; r < ce; ++r) {
      const int k = static_cast<int>(r / ny);
      const int j = static_cast<int>(r % ny);
      rr.relax(in, j, k);
      rr.store_row(out, j, k);
    }
  });
}

template <class S>
void fill_sigma_ghosts_axis(common::Field3<S>& sigma, SigmaBcSpec bc,
                            int axis, std::array<bool, 2> sides, int layers) {
  const int ng = (layers < 0 || layers > sigma.ng()) ? sigma.ng() : layers;
  const int n[3] = {sigma.nx(), sigma.ny(), sigma.nz()};
  // Tangential extent: ghosts included along the axes filled before this
  // one, so the corners come out of the earlier passes.
  int lo[3], hi[3];
  for (int a = 0; a < 3; ++a) {
    lo[a] = (a < axis) ? -ng : 0;
    hi[a] = (a < axis) ? n[a] + ng : n[a];
  }
  for (int side = 0; side < 2; ++side) {
    if (!sides[static_cast<std::size_t>(side)]) continue;
    const SigmaBc face_bc = bc.side(axis, side);
    for (int g = 1; g <= ng; ++g) {
      const int ghost = (side == 0) ? -g : n[axis] + g - 1;
      const int src = (face_bc == SigmaBc::kPeriodic)
                          ? ((side == 0) ? n[axis] - g : g - 1)
                          : ((side == 0) ? 0 : n[axis] - 1);
      int i0 = lo[0], i1 = hi[0], j0 = lo[1], j1 = hi[1], k0 = lo[2],
          k1 = hi[2];
      if (axis == 0) { i0 = ghost; i1 = ghost + 1; }
      if (axis == 1) { j0 = ghost; j1 = ghost + 1; }
      if (axis == 2) { k0 = ghost; k1 = ghost + 1; }
      for (int k = k0; k < k1; ++k) {
        for (int j = j0; j < j1; ++j) {
          for (int i = i0; i < i1; ++i) {
            int sidx[3] = {i, j, k};
            sidx[axis] = src;
            sigma(i, j, k) = sigma(sidx[0], sidx[1], sidx[2]);
          }
        }
      }
    }
  }
}

template <class S>
void fill_sigma_ghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int layers) {
  for (int axis = 0; axis < 3; ++axis)
    fill_sigma_ghosts_axis(sigma, bc, axis, {true, true}, layers);
}

#define IGR_INSTANTIATE_SIGMA_GHOSTS(T)                                        \
  template void fill_sigma_ghosts<T>(common::Field3<T>&, SigmaBcSpec, int);    \
  template void fill_sigma_ghosts_axis<T>(common::Field3<T>&, SigmaBcSpec,     \
                                          int, std::array<bool, 2>, int);

IGR_INSTANTIATE_SIGMA_GHOSTS(double)
IGR_INSTANTIATE_SIGMA_GHOSTS(float)
IGR_INSTANTIATE_SIGMA_GHOSTS(common::half)
IGR_INSTANTIATE_SIGMA_GHOSTS(common::bfloat16)
#undef IGR_INSTANTIATE_SIGMA_GHOSTS

// Explicit instantiations for the four precision policies.
using common::Bf16x32;
using common::Fp16x32;
using common::Fp32;
using common::Fp64;

#define IGR_INSTANTIATE_SIGMA(P)                                               \
  template void sigma_relax_planes<P>(                                         \
      common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,      \
      const common::Field3<P::storage_t>&, P::compute_t, P::compute_t,         \
      P::compute_t, P::compute_t, int, const common::ExecSpace&);              \
  template void sigma_jacobi_planes<P>(                                        \
      common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,      \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t,                  \
      const common::ExecSpace&);

IGR_INSTANTIATE_SIGMA(Fp64)
IGR_INSTANTIATE_SIGMA(Fp32)
IGR_INSTANTIATE_SIGMA(Fp16x32)
IGR_INSTANTIATE_SIGMA(Bf16x32)
#undef IGR_INSTANTIATE_SIGMA

}  // namespace igr::core

#include "core/sigma_solver.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/half.hpp"

namespace igr::core {

namespace {

/// The 7-point relaxation update at flat row offset `i`.  Face coefficients
/// are arithmetic means of the *reciprocal* densities — i.e. 1/rho_face
/// with rho_face the harmonic mean of the two cell densities (that is the
/// intended discretization: it is division-free given the precomputed
/// 1/rho field and keeps the operator symmetric; see sigma_solver.hpp).
/// One division per cell (the diagonal solve).
template <class C, class S>
inline C relax_cell(const S* pir, const S* psr, const S* ps, std::ptrdiff_t i,
                    std::ptrdiff_t sy, std::ptrdiff_t sz, C alpha, C inv_dx2,
                    C inv_dy2, C inv_dz2) {
  const C ir0 = static_cast<C>(pir[i]);
  const C cxm = C(0.5) * (ir0 + static_cast<C>(pir[i - 1]));
  const C cxp = C(0.5) * (ir0 + static_cast<C>(pir[i + 1]));
  const C cym = C(0.5) * (ir0 + static_cast<C>(pir[i - sy]));
  const C cyp = C(0.5) * (ir0 + static_cast<C>(pir[i + sy]));
  const C czm = C(0.5) * (ir0 + static_cast<C>(pir[i - sz]));
  const C czp = C(0.5) * (ir0 + static_cast<C>(pir[i + sz]));

  const C off = inv_dx2 * (static_cast<C>(ps[i + 1]) * cxp +
                           static_cast<C>(ps[i - 1]) * cxm) +
                inv_dy2 * (static_cast<C>(ps[i + sy]) * cyp +
                           static_cast<C>(ps[i - sy]) * cym) +
                inv_dz2 * (static_cast<C>(ps[i + sz]) * czp +
                           static_cast<C>(ps[i - sz]) * czm);
  const C diag = ir0 + alpha * (inv_dx2 * (cxp + cxm) +
                                inv_dy2 * (cyp + cym) +
                                inv_dz2 * (czp + czm));
  return (static_cast<C>(psr[i]) + alpha * off) / diag;
}

/// The eleven compute-precision rows one relax row consumes: sigma and
/// reciprocal density at (j, k), (j∓1, k), (j, k∓1), plus the source row.
/// Every row spans i in [-1, nx] (`row_len` = nx + 2), so the i∓1 taps of
/// the center rows are in-slab; neighbor rows only ever tap their center
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

/// Per-plane conversion cache for the batched sweeps of a converting
/// (FP16/32) policy — the PR 4 velocity-row-ring pattern applied to the
/// sigma-sweep stencil gathers.  One get-or-convert slot per row of the
/// *current plane* (j ∈ [-1, ny]) holds the plane's sigma and
/// reciprocal-density rows at compute precision, so adjacent (j, k) visits
/// reuse the rows they share: a serial j walk converts each plane row once
/// instead of three times, and the fused pipeline's two j-parity phases
/// share one cache — phase 1 reads every center-plane row phase 0 already
/// converted.  The single-use rows — sigma/inv_rho at the k∓1 planes and
/// the source — stay direct per-visit loads.  (Storage is small and
/// streaming: 2 fields × (ny + 2) rows of scratch per thread, of which
/// only the stencil's three rows are hot at a time.)
///
/// Red–black staleness note: the in-place color pass stores into rows this
/// cache has already converted, so a cached row can be stale in the
/// *updated* color's lanes relative to a fresh gather — including across
/// the j-parity phase boundary, where phase 0 has written its rows' color
/// lanes before phase 1 gathers them.  Those lanes are never consumed:
/// every tap feeding a stored value reads the opposite parity ((i+j+k) of
/// each stencil neighbor flips), which the color pass does not write — so
/// the stored bits are identical to the per-visit-gather form
/// (tests/test_mixed_precision_step.cpp asserts the end-to-end
/// consequence).  A cache must never survive into the *next* color or
/// sweep, whose taps do consume the previous pass's writes — every user
/// constructs/resets per color pass.
template <class Policy>
class PlaneRowCache {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;

 public:
  /// `ny` interior rows per plane; each cached row spans i ∈ [-1, nx].
  PlaneRowCache(int ny, std::size_t row_len)
      : num_rows_(static_cast<std::size_t>(ny) + 2),
        row_len_(row_len),
        held_(2 * num_rows_, kEmpty),
        store_(2 * num_rows_ * row_len) {}

  /// Switch to plane `k`, forgetting every cached row.
  void reset(int k) {
    k_ = k;
    std::fill(held_.begin(), held_.end(), kEmpty);
  }

  const C* sigma_row(const common::Field3<S>& sigma, int j) {
    return row(sigma, 0, j);
  }
  const C* inv_rho_row(const common::Field3<S>& inv_rho, int j) {
    return row(inv_rho, 1, j);
  }

 private:
  static constexpr int kEmpty = INT_MIN;

  const C* row(const common::Field3<S>& f, int which, int j) {
    const std::size_t slot = static_cast<std::size_t>(which) * num_rows_ +
                             static_cast<std::size_t>(j + 1);
    C* dst = store_.data() + slot * row_len_;
    if (held_[slot] != j) {
      common::load_line<Policy>(&f(-1, j, k_), dst, row_len_);
      held_[slot] = j;
    }
    return dst;
  }

  std::size_t num_rows_;
  std::size_t row_len_;
  int k_ = 0;
  std::vector<int> held_;
  std::vector<C> store_;
};

/// Load the per-visit (single-use) rows into `aux` (5 consecutive rows) and
/// point the StencilRows slots at them.
template <class Policy>
inline void load_transverse_rows(
    const common::Field3<typename Policy::storage_t>& sig_in,
    const common::Field3<typename Policy::storage_t>& src,
    const common::Field3<typename Policy::storage_t>& inv_rho, int j, int k,
    std::size_t row_len, typename Policy::compute_t* aux,
    StencilRows<typename Policy::compute_t>& rows) {
  common::load_line<Policy>(&sig_in(-1, j, k - 1), aux, row_len);
  common::load_line<Policy>(&sig_in(-1, j, k + 1), aux + row_len, row_len);
  common::load_line<Policy>(&inv_rho(-1, j, k - 1), aux + 2 * row_len,
                            row_len);
  common::load_line<Policy>(&inv_rho(-1, j, k + 1), aux + 3 * row_len,
                            row_len);
  common::load_line<Policy>(&src(-1, j, k), aux + 4 * row_len, row_len);
  rows.sg_km = aux;
  rows.sg_kp = aux + row_len;
  rows.ir_km = aux + 2 * row_len;
  rows.ir_kp = aux + 3 * row_len;
  rows.src_c = aux + 4 * row_len;
}

/// Gather the full stencil for cell row (j, k): center-plane rows through
/// the rolling cache, transverse rows direct.
template <class Policy>
inline StencilRows<typename Policy::compute_t> gather_rows(
    PlaneRowCache<Policy>& cache,
    const common::Field3<typename Policy::storage_t>& sig_in,
    const common::Field3<typename Policy::storage_t>& src,
    const common::Field3<typename Policy::storage_t>& inv_rho, int j, int k,
    std::size_t row_len, typename Policy::compute_t* aux) {
  StencilRows<typename Policy::compute_t> rows{};
  rows.sg_c = cache.sigma_row(sig_in, j);
  rows.sg_jm = cache.sigma_row(sig_in, j - 1);
  rows.sg_jp = cache.sigma_row(sig_in, j + 1);
  rows.ir_c = cache.inv_rho_row(inv_rho, j);
  rows.ir_jm = cache.inv_rho_row(inv_rho, j - 1);
  rows.ir_jp = cache.inv_rho_row(inv_rho, j + 1);
  load_transverse_rows<Policy>(sig_in, src, inv_rho, j, k, row_len, aux,
                               rows);
  return rows;
}

/// Tentative relax values for a whole row of gathered compute-precision
/// rows.  Contiguous in i, so the loop (and its diagonal divide)
/// vectorizes; the expression mirrors relax_cell exactly, so with bitwise-
/// identical conversion lanes the paths produce bitwise-identical updates —
/// tests/test_mixed_precision_step.cpp asserts this end to end.  Red–black
/// callers keep only the updated color's lanes — bit-for-bit what the
/// strided per-cell evaluation would have stored.
template <class C>
inline void relax_row_gathered(const StencilRows<C>& b, int nx, C alpha,
                               C inv_dx2, C inv_dy2, C inv_dz2,
                               C* __restrict out) {
  // Eleven independent row pointers exceed the vectorizer's runtime
  // alias-versioning budget; the rows are distinct scratch buffers by
  // construction (cache slots + the per-visit aux block), so __restrict
  // locals let the loop — and its diagonal divide — vectorize, exactly the
  // treatment the PR 4 flux slices needed.  Offset by +1: rows start at
  // i = -1.
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

/// Tentative relax values for a whole row.  Contiguous in i, no
/// loop-carried dependence: the loop vectorizes, and in particular the
/// per-cell diagonal division becomes a pipelined vector divide.  Each lane
/// is the exact relax_cell expression, so a caller that keeps only some
/// lanes stores the same bits the strided per-cell update would have.
template <class C, class S>
inline void relax_row(const S* pir, const S* psr, const S* ps, int nx,
                      std::ptrdiff_t sy, std::ptrdiff_t sz, C alpha, C inv_dx2,
                      C inv_dy2, C inv_dz2, C* __restrict out) {
  // relax_cell with the stencil taps hoisted into per-row pointers and the
  // expression inlined: the nine streams are then plain affine accesses the
  // vectorizer handles (the relax_cell call form defeats it), and `out` is
  // thread-private scratch, never an alias of the field rows.  Term order
  // matches relax_cell exactly — each lane's bits are the per-cell result.
  const S* irj_m = pir - sy;
  const S* irj_p = pir + sy;
  const S* irk_m = pir - sz;
  const S* irk_p = pir + sz;
  const S* sgj_m = ps - sy;
  const S* sgj_p = ps + sy;
  const S* sgk_m = ps - sz;
  const S* sgk_p = ps + sz;
  for (int i = 0; i < nx; ++i) {
    const C ir0 = static_cast<C>(pir[i]);
    const C cxm = C(0.5) * (ir0 + static_cast<C>(pir[i - 1]));
    const C cxp = C(0.5) * (ir0 + static_cast<C>(pir[i + 1]));
    const C cym = C(0.5) * (ir0 + static_cast<C>(irj_m[i]));
    const C cyp = C(0.5) * (ir0 + static_cast<C>(irj_p[i]));
    const C czm = C(0.5) * (ir0 + static_cast<C>(irk_m[i]));
    const C czp = C(0.5) * (ir0 + static_cast<C>(irk_p[i]));

    const C off = inv_dx2 * (static_cast<C>(ps[i + 1]) * cxp +
                             static_cast<C>(ps[i - 1]) * cxm) +
                  inv_dy2 * (static_cast<C>(sgj_p[i]) * cyp +
                             static_cast<C>(sgj_m[i]) * cym) +
                  inv_dz2 * (static_cast<C>(sgk_p[i]) * czp +
                             static_cast<C>(sgk_m[i]) * czm);
    const C diag = ir0 + alpha * (inv_dx2 * (cxp + cxm) +
                                  inv_dy2 * (cyp + cym) +
                                  inv_dz2 * (czp + czm));
    out[i] = (static_cast<C>(psr[i]) + alpha * off) / diag;
  }
}

/// One two-color (red–black) Gauss–Seidel pass, in place.  Cells of one
/// color only couple to the other color through the 7-point stencil, so
/// each half-pass is dependency-free: it parallelizes across k-planes and
/// vectorizes by relaxing whole rows and storing only the updated color —
/// the discarded lanes read stale same-color values, which cannot leak into
/// a stored bit.  Each color pass runs as two k-parity phases: the whole-row
/// evaluation also *reads* (without keeping) the current color's elements of
/// the k∓1 planes, so letting adjacent planes update concurrently would be a
/// formal data race on those bytes; within one phase all written planes
/// share a k parity while reads only cross to the other parity.  Converges
/// to the same fixed point as Jacobi — tests/test_sigma_solver.cpp asserts
/// this.
template <class Policy>
void sweep_red_black(common::Field3<typename Policy::storage_t>& sigma,
                     const common::Field3<typename Policy::storage_t>& src,
                     const common::Field3<typename Policy::storage_t>& inv_rho,
                     typename Policy::compute_t alpha,
                     typename Policy::compute_t inv_dx2,
                     typename Policy::compute_t inv_dy2,
                     typename Policy::compute_t inv_dz2,
                     const common::ExecSpace& exec) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = sigma.nx(), ny = sigma.ny(), nz = sigma.nz();
  const std::ptrdiff_t sy = inv_rho.stride(1);
  const std::ptrdiff_t sz = inv_rho.stride(2);

  for (int color = 0; color < 2; ++color) {
    for (int kphase = 0; kphase < 2; ++kphase) {
      // Each member owns a contiguous chunk of this phase's k-parity planes
      // (k = kphase + 2*kk); writes of one phase never share a plane.
      const long nk = (static_cast<long>(nz) - kphase + 1) / 2;
      exec.run_team([&](const common::ExecSpace::Team& t) {
        std::vector<C> tmp(static_cast<std::size_t>(nx));
        long cb, ce;
        t.chunk(nk, cb, ce);
        for (long kk = cb; kk < ce; ++kk) {
          const int k = kphase + 2 * static_cast<int>(kk);
          for (int j = 0; j < ny; ++j) {
            const S* pir = &inv_rho(0, j, k);
            const S* psr = &src(0, j, k);
            S* ps = &sigma(0, j, k);
            relax_row<C>(pir, psr, ps, nx, sy, sz, alpha, inv_dx2, inv_dy2,
                         inv_dz2, tmp.data());
            for (int i = (color + j + k) & 1; i < nx; i += 2) {
              ps[i] = static_cast<S>(tmp[i]);
            }
          }
        }
      });
    }
  }
}

/// Row-batched red–black pass for converting policies: the storage fields
/// are read through per-row compute-precision scratch (one batch conversion
/// per row instead of one scalar conversion per stencil tap), and the
/// updated color's values are compacted, batch-converted, and scattered
/// back with stride 2.  Only the updated color's cells are ever read by the
/// relax expression's taps (opposite parity) and only they are written, so
/// the result is bitwise-equal to sweep_red_black.  The serial j
/// walk within each plane streams through the rolling PlaneRowCache, so
/// every center-plane sigma/inv_rho row converts once per plane visit
/// instead of three times (eleven gathered rows per visit become seven).
///
/// Each color pass runs as two k-parity phases: the whole-row gathers also
/// *touch* (without using) the current color's elements of the k∓1 planes,
/// so letting adjacent planes update concurrently would be a formal data
/// race on those bytes.  Within one phase all written planes share a k
/// parity while gathers only cross to the other parity — race-free with the
/// gathers kept contiguous (the fast form).  Update order across planes is
/// immaterial for red–black (all read taps are the un-written color), so
/// phasing does not change results; single-core it is the same work.
template <class Policy>
void sweep_red_black_batched(
    common::Field3<typename Policy::storage_t>& sigma,
    const common::Field3<typename Policy::storage_t>& src,
    const common::Field3<typename Policy::storage_t>& inv_rho,
    typename Policy::compute_t alpha, typename Policy::compute_t inv_dx2,
    typename Policy::compute_t inv_dy2, typename Policy::compute_t inv_dz2,
    const common::ExecSpace& exec) {
  using C = typename Policy::compute_t;
  const int nx = sigma.nx(), ny = sigma.ny(), nz = sigma.nz();
  const std::size_t row_len = static_cast<std::size_t>(nx) + 2;

  for (int color = 0; color < 2; ++color) {
    for (int kphase = 0; kphase < 2; ++kphase) {
      const long nk = (static_cast<long>(nz) - kphase + 1) / 2;
      exec.run_team([&](const common::ExecSpace::Team& t) {
        PlaneRowCache<Policy> cache(ny, row_len);
        std::vector<C> aux(5 * row_len);
        std::vector<C> tmp(static_cast<std::size_t>(nx));
        std::vector<C> vals((static_cast<std::size_t>(nx) + 1) / 2);
        long cb, ce;
        t.chunk(nk, cb, ce);
        for (long kk = cb; kk < ce; ++kk) {
          const int k = kphase + 2 * static_cast<int>(kk);
          cache.reset(k);
          for (int j = 0; j < ny; ++j) {
            const auto rows = gather_rows<Policy>(cache, sigma, src, inv_rho,
                                                  j, k, row_len, aux.data());
            // Whole-row tentative relax (vectorizes), keep the color lanes.
            relax_row_gathered<C>(rows, nx, alpha, inv_dx2, inv_dy2, inv_dz2,
                                  tmp.data());
            const int i0 = (color + j + k) & 1;
            std::size_t m = 0;
            for (int i = i0; i < nx; i += 2) vals[m++] = tmp[i];
            if (m > 0) {
              common::store_line_strided<Policy>(vals.data(),
                                                 &sigma(i0, j, k), 2, m);
            }
          }
        }
      });
    }
  }
}


/// Shared body of the per-axis ghost fills.  For axes 0/1 the tangential k
/// loop can be restricted to interior planes [kr0, kr1) — the per-plane rim
/// fill of the fused pipeline; the full-extent fills pass [0, nz).  Axis 2
/// ignores the range (its writes are whole ghost planes).
template <class S>
void fill_sigma_axis_krange(common::Field3<S>& sigma, SigmaBcSpec bc,
                            int axis, std::array<bool, 2> sides, int layers,
                            int kr0, int kr1) {
  const int ng = (layers < 0 || layers > sigma.ng()) ? sigma.ng() : layers;
  const int n[3] = {sigma.nx(), sigma.ny(), sigma.nz()};
  {
    int lo[3], hi[3];
    for (int a = 0; a < 3; ++a) {
      lo[a] = (a < axis) ? -ng : 0;
      hi[a] = (a < axis) ? n[a] + ng : n[a];
    }
    if (axis < 2) {
      lo[2] = kr0;
      hi[2] = kr1;
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
}

}  // namespace

template <class Policy>
void sigma_relax_planes(common::Field3<typename Policy::storage_t>& sigma,
                        const common::Field3<typename Policy::storage_t>& src,
                        const common::Field3<typename Policy::storage_t>& inv_rho,
                        typename Policy::compute_t alpha,
                        typename Policy::compute_t dx,
                        typename Policy::compute_t dy,
                        typename Policy::compute_t dz, int color, int k0,
                        int k1, const common::ExecSpace& exec) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = sigma.nx(), ny = sigma.ny();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);

  // Planes are walked serially (the pipelined caller orders them; the k∓1
  // stencil taps therefore never see a concurrently written plane) and rows
  // parallelize within a plane in two j-parity phases: the whole-row
  // evaluation reads rows j∓1 at every column, so rows of the same parity
  // may update concurrently while their reads only cross to the other
  // parity.
  if constexpr (common::converts_storage<Policy>) {
    // One per-plane row cache shared by both j-parity phases: phase 0
    // converts the rows it touches, phase 1's gathers then hit every
    // center-plane row (its j∓1 neighbors were phase-0 centers, its
    // centers were phase-0 neighbors).  Valid across the phase boundary
    // by the parity argument at PlaneRowCache: the lanes phase 0 wrote
    // are never consumed by any tap feeding a stored value.  The team
    // barrier between the phases keeps the race-freedom structure the
    // implicit omp-for barrier used to provide.
    const std::size_t row_len = static_cast<std::size_t>(nx) + 2;
    for (int k = k0; k < k1; ++k) {
      exec.run_team([&](const common::ExecSpace::Team& t) {
        PlaneRowCache<Policy> cache(ny, row_len);
        cache.reset(k);
        std::vector<C> aux(5 * row_len);
        std::vector<C> tmp(static_cast<std::size_t>(nx));
        std::vector<C> vals((static_cast<std::size_t>(nx) + 1) / 2);
        for (int jphase = 0; jphase < 2; ++jphase) {
          if (jphase == 1) t.barrier();
          const long nj = (static_cast<long>(ny) - jphase + 1) / 2;
          long cb, ce;
          t.chunk(nj, cb, ce);
          for (long jj = cb; jj < ce; ++jj) {
            const int j = jphase + 2 * static_cast<int>(jj);
            const auto rows = gather_rows<Policy>(cache, sigma, src,
                                                  inv_rho, j, k, row_len,
                                                  aux.data());
            relax_row_gathered<C>(rows, nx, alpha, inv_dx2, inv_dy2,
                                  inv_dz2, tmp.data());
            const int i0 = (color + j + k) & 1;
            std::size_t m = 0;
            for (int i = i0; i < nx; i += 2) vals[m++] = tmp[i];
            if (m > 0) {
              common::store_line_strided<Policy>(vals.data(),
                                                 &sigma(i0, j, k), 2, m);
            }
          }
        }
      });
    }
  } else {
    const std::ptrdiff_t sy = inv_rho.stride(1);
    const std::ptrdiff_t sz = inv_rho.stride(2);
    for (int k = k0; k < k1; ++k) {
      for (int jphase = 0; jphase < 2; ++jphase) {
        const long nj = (static_cast<long>(ny) - jphase + 1) / 2;
        exec.run_team([&](const common::ExecSpace::Team& t) {
          std::vector<C> tmp(static_cast<std::size_t>(nx));
          long cb, ce;
          t.chunk(nj, cb, ce);
          for (long jj = cb; jj < ce; ++jj) {
            const int j = jphase + 2 * static_cast<int>(jj);
            const S* pir = &inv_rho(0, j, k);
            const S* psr = &src(0, j, k);
            S* ps = &sigma(0, j, k);
            relax_row<C>(pir, psr, ps, nx, sy, sz, alpha, inv_dx2, inv_dy2,
                         inv_dz2, tmp.data());
            for (int i = (color + j + k) & 1; i < nx; i += 2) {
              ps[i] = static_cast<S>(tmp[i]);
            }
          }
        });
      }
    }
  }
}

template <class Policy>
void sigma_jacobi_planes(common::Field3<typename Policy::storage_t>& out,
                         const common::Field3<typename Policy::storage_t>& in,
                         const common::Field3<typename Policy::storage_t>& src,
                         const common::Field3<typename Policy::storage_t>& inv_rho,
                         typename Policy::compute_t alpha,
                         typename Policy::compute_t dx,
                         typename Policy::compute_t dy,
                         typename Policy::compute_t dz, int k0, int k1,
                         const common::ExecSpace& exec) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = out.nx(), ny = out.ny();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);

  // Both paths partition the flattened (k, j) row index space — the
  // collapse(2) replacement; writes are disjoint rows of `out`.
  const long total = static_cast<long>(k1 - k0) * ny;

  if constexpr (common::converts_storage<Policy>) {
    const std::size_t row_len = static_cast<std::size_t>(nx) + 2;
    exec.run_team([&](const common::ExecSpace::Team& t) {
      PlaneRowCache<Policy> cache(ny, row_len);
      int cached_k = INT_MIN;
      std::vector<C> aux(5 * row_len);
      std::vector<C> vals(static_cast<std::size_t>(nx));
      long cb, ce;
      t.chunk(total, cb, ce);
      for (long idx = cb; idx < ce; ++idx) {
        const int k = k0 + static_cast<int>(idx / ny);
        const int j = static_cast<int>(idx % ny);
        if (k != cached_k) {
          cache.reset(k);
          cached_k = k;
        }
        const auto rows = gather_rows<Policy>(cache, in, src, inv_rho, j,
                                              k, row_len, aux.data());
        relax_row_gathered<C>(rows, nx, alpha, inv_dx2, inv_dy2, inv_dz2,
                              vals.data());
        common::store_line<Policy>(vals.data(), out.row(j, k),
                                   static_cast<std::size_t>(nx));
      }
    });
  } else {
    const std::ptrdiff_t sy = inv_rho.stride(1);
    const std::ptrdiff_t sz = inv_rho.stride(2);
    exec.for_each(total, [&](long idx) {
      const int k = k0 + static_cast<int>(idx / ny);
      const int j = static_cast<int>(idx % ny);
      const S* pir = &inv_rho(0, j, k);
      const S* psr = &src(0, j, k);
      const S* ps = &in(0, j, k);
      S* po = &out(0, j, k);
      for (int i = 0; i < nx; ++i) {
        po[i] = static_cast<S>(relax_cell<C>(pir, psr, ps, i, sy, sz, alpha,
                                             inv_dx2, inv_dy2, inv_dz2));
      }
    });
  }
}

template <class S>
void fill_sigma_ghosts_axis(common::Field3<S>& sigma, SigmaBcSpec bc,
                            int axis, std::array<bool, 2> sides, int layers) {
  fill_sigma_axis_krange(sigma, bc, axis, sides, layers, 0, sigma.nz());
}

template <class S>
void fill_sigma_rim(common::Field3<S>& sigma, SigmaBcSpec bc, int k0, int k1,
                    int layers) {
  fill_sigma_axis_krange(sigma, bc, 0, {true, true}, layers, k0, k1);
  fill_sigma_axis_krange(sigma, bc, 1, {true, true}, layers, k0, k1);
}

template <class S>
void fill_sigma_zghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int side,
                        int layers) {
  fill_sigma_axis_krange(sigma, bc, 2,
                         {side == 0, side == 1}, layers, 0, sigma.nz());
}

template <class S>
void fill_sigma_ghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int layers) {
  for (int axis = 0; axis < 3; ++axis)
    fill_sigma_ghosts_axis(sigma, bc, axis, {true, true}, layers);
}

#define IGR_INSTANTIATE_SIGMA_GHOSTS(T)                                        \
  template void fill_sigma_ghosts<T>(common::Field3<T>&, SigmaBcSpec, int);    \
  template void fill_sigma_ghosts_axis<T>(common::Field3<T>&, SigmaBcSpec,     \
                                          int, std::array<bool, 2>, int);      \
  template void fill_sigma_rim<T>(common::Field3<T>&, SigmaBcSpec, int, int,   \
                                  int);                                        \
  template void fill_sigma_zghosts<T>(common::Field3<T>&, SigmaBcSpec, int,    \
                                      int);

IGR_INSTANTIATE_SIGMA_GHOSTS(double)
IGR_INSTANTIATE_SIGMA_GHOSTS(float)
IGR_INSTANTIATE_SIGMA_GHOSTS(common::half)
IGR_INSTANTIATE_SIGMA_GHOSTS(common::bfloat16)
#undef IGR_INSTANTIATE_SIGMA_GHOSTS

template <class Policy>
void sigma_sweep_once(common::Field3<typename Policy::storage_t>& sigma,
                      common::Field3<typename Policy::storage_t>& scratch,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz, SweepKind kind,
                      const common::ExecSpace& exec) {
  using C = typename Policy::compute_t;
  if (kind == SweepKind::kJacobi) {
    sigma_jacobi_planes<Policy>(scratch, sigma, src, inv_rho, alpha, dx, dy,
                                dz, 0, sigma.nz(), exec);
    std::swap(sigma, scratch);
    return;
  }
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);
  // The row-batched pass only exists for converting policies; identity
  // storage reads at compute precision already, so batching would only add
  // copies.
  if constexpr (common::converts_storage<Policy>) {
    sweep_red_black_batched<Policy>(sigma, src, inv_rho, alpha, inv_dx2,
                                    inv_dy2, inv_dz2, exec);
  } else {
    sweep_red_black<Policy>(sigma, src, inv_rho, alpha, inv_dx2, inv_dy2,
                            inv_dz2, exec);
  }
}

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
                 const common::ExecSpace& exec) {
  for (int s = 0; s < sweeps; ++s) {
    // Sweeps consume a single ghost layer.
    fill_sigma_ghosts(sigma, bc, 1);
    sigma_sweep_once<Policy>(sigma, scratch, src, inv_rho, alpha, dx, dy, dz,
                             kind, exec);
  }
  // Reconstruction downstream needs the full ghost depth.
  fill_sigma_ghosts(sigma, bc);
}

template <class Policy>
double sigma_residual(const common::Field3<typename Policy::storage_t>& sigma,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = sigma.nx(), ny = sigma.ny(), nz = sigma.nz();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);
  auto at = [](const common::Field3<S>& f, int i, int j, int k) -> C {
    return static_cast<C>(f(i, j, k));
  };

  double res = 0.0;
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const C ir0 = at(inv_rho, i, j, k);
        const C cxm = C(0.5) * (ir0 + at(inv_rho, i - 1, j, k));
        const C cxp = C(0.5) * (ir0 + at(inv_rho, i + 1, j, k));
        const C cym = C(0.5) * (ir0 + at(inv_rho, i, j - 1, k));
        const C cyp = C(0.5) * (ir0 + at(inv_rho, i, j + 1, k));
        const C czm = C(0.5) * (ir0 + at(inv_rho, i, j, k - 1));
        const C czp = C(0.5) * (ir0 + at(inv_rho, i, j, k + 1));
        const C s0 = at(sigma, i, j, k);
        const C lap =
            inv_dx2 * ((at(sigma, i + 1, j, k) - s0) * cxp -
                       (s0 - at(sigma, i - 1, j, k)) * cxm) +
            inv_dy2 * ((at(sigma, i, j + 1, k) - s0) * cyp -
                       (s0 - at(sigma, i, j - 1, k)) * cym) +
            inv_dz2 * ((at(sigma, i, j, k + 1) - s0) * czp -
                       (s0 - at(sigma, i, j, k - 1)) * czm);
        const C r = s0 * ir0 - alpha * lap - at(src, i, j, k);
        res = std::max(res, static_cast<double>(std::abs(r)));
      }
    }
  }
  return res;
}

// Explicit instantiations for the four precision policies.
using common::Bf16x32;
using common::Fp16x32;
using common::Fp32;
using common::Fp64;

#define IGR_INSTANTIATE_SIGMA(P)                                               \
  template void sigma_sweep_once<P>(                                           \
      common::Field3<P::storage_t>&, common::Field3<P::storage_t>&,            \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t, SweepKind,       \
      const common::ExecSpace&);                                               \
  template void sigma_solve<P>(                                                \
      common::Field3<P::storage_t>&, common::Field3<P::storage_t>&,            \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t, int, SweepKind,  \
      SigmaBcSpec, const common::ExecSpace&);                                  \
  template double sigma_residual<P>(                                           \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      const common::Field3<P::storage_t>&, P::compute_t, P::compute_t,         \
      P::compute_t, P::compute_t);                                             \
  template void sigma_relax_planes<P>(                                         \
      common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,      \
      const common::Field3<P::storage_t>&, P::compute_t, P::compute_t,         \
      P::compute_t, P::compute_t, int, int, int, const common::ExecSpace&);    \
  template void sigma_jacobi_planes<P>(                                        \
      common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,      \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t, int, int,        \
      const common::ExecSpace&);

IGR_INSTANTIATE_SIGMA(Fp64)
IGR_INSTANTIATE_SIGMA(Fp32)
IGR_INSTANTIATE_SIGMA(Fp16x32)
IGR_INSTANTIATE_SIGMA(Bf16x32)
#undef IGR_INSTANTIATE_SIGMA

}  // namespace igr::core

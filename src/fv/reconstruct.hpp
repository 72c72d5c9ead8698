#pragma once
/// \file reconstruct.hpp
/// Interface reconstruction operators.
///
/// IGR permits *linear* (non-adaptive) high-order reconstruction — the paper
/// uses "a 5th-order accurate polynomial interpolation scheme" (§5.3) since
/// no shock capturing is needed.  The WENO5-JS nonlinear reconstruction is
/// provided for the state-of-the-art baseline (§6.2).
///
/// All operators act on a 6-point stencil s = { q(i-2) ... q(i+3) } around the
/// face i+1/2 (the paper's q(-2:3)) and return the left/right face states.

#include <array>

#include "common/math.hpp"

namespace igr::fv {

/// Left/right states at one face.
template <class T>
struct FacePair {
  T left{}, right{};
};

/// Reconstruction scheme selector used by solver configuration.
enum class ReconScheme { kFirst, kThird, kFifth, kWeno5 };

template <ReconScheme R, class T>
inline FacePair<T> reconstruct_fixed(const T* s);

/// First-order (Godunov) reconstruction: piecewise-constant.
template <class T>
FacePair<T> recon1(const std::array<T, 6>& s) {
  return reconstruct_fixed<ReconScheme::kFirst>(s.data());
}

/// Third-order upwind-biased linear reconstruction.
template <class T>
FacePair<T> recon3(const std::array<T, 6>& s) {
  return reconstruct_fixed<ReconScheme::kThird>(s.data());
}

/// Fifth-order upwind-biased linear reconstruction (the IGR scheme's default).
template <class T>
FacePair<T> recon5(const std::array<T, 6>& s) {
  return reconstruct_fixed<ReconScheme::kFifth>(s.data());
}

/// WENO5-JS smoothness indicators and weights for one upwind triple.
/// `a,b,c,d,e` are the five stencil values ordered upwind-to-downwind.
template <class T>
T weno5_side(T a, T b, T c, T d, T e) {
  using common::sq;
  const T thirteen_twelfths = T(13) / T(12);
  const T beta0 = thirteen_twelfths * sq(a - T(2) * b + c) +
                  T(0.25) * sq(a - T(4) * b + T(3) * c);
  const T beta1 = thirteen_twelfths * sq(b - T(2) * c + d) +
                  T(0.25) * sq(b - d);
  const T beta2 = thirteen_twelfths * sq(c - T(2) * d + e) +
                  T(0.25) * sq(T(3) * c - T(4) * d + e);
  const T eps = T(1e-6);
  T w0 = T(0.1) / sq(eps + beta0);
  T w1 = T(0.6) / sq(eps + beta1);
  T w2 = T(0.3) / sq(eps + beta2);
  const T wsum = w0 + w1 + w2;
  w0 /= wsum;
  w1 /= wsum;
  w2 /= wsum;
  const T p0 = (T(2) * a - T(7) * b + T(11) * c) / T(6);
  const T p1 = (-b + T(5) * c + T(2) * d) / T(6);
  const T p2 = (T(2) * c + T(5) * d - e) / T(6);
  return w0 * p0 + w1 * p1 + w2 * p2;
}

/// WENO5-JS reconstruction of both face states (baseline scheme).
template <class T>
FacePair<T> weno5(const std::array<T, 6>& s) {
  return reconstruct_fixed<ReconScheme::kWeno5>(s.data());
}

template <class T>
FacePair<T> reconstruct(ReconScheme scheme, const std::array<T, 6>& s) {
  switch (scheme) {
    case ReconScheme::kFirst: return recon1(s);
    case ReconScheme::kThird: return recon3(s);
    case ReconScheme::kFifth: return recon5(s);
    case ReconScheme::kWeno5: return weno5(s);
  }
  return recon1(s);
}

/// Value form of the 6-point stencil operators, with the scheme fixed at
/// compile time: the single home of the stencil arithmetic.  The pointer
/// form below (`s` points at q(i-2) for the face i+1/2) and the array-based
/// named operators above forward here, and the row-streaming flux kernel
/// calls it with one value per stencil row.  Solvers resolve the scheme
/// once per flux computation, so no per-face dispatch remains and the face
/// loops vectorize.
template <ReconScheme R, class T>
inline FacePair<T> reconstruct_vals(T s0, T s1, T s2, T s3, T s4, T s5) {
  if constexpr (R == ReconScheme::kFirst) {
    (void)s0; (void)s1; (void)s4; (void)s5;
    return {s2, s3};
  } else if constexpr (R == ReconScheme::kThird) {
    (void)s0; (void)s5;
    return {(-s1 + T(5) * s2 + T(2) * s3) / T(6),
            (T(2) * s2 + T(5) * s3 - s4) / T(6)};
  } else if constexpr (R == ReconScheme::kFifth) {
    return {(T(2) * s0 - T(13) * s1 + T(47) * s2 + T(27) * s3 -
             T(3) * s4) / T(60),
            (-T(3) * s1 + T(27) * s2 + T(47) * s3 - T(13) * s4 +
             T(2) * s5) / T(60)};
  } else {
    return {weno5_side(s0, s1, s2, s3, s4),
            weno5_side(s5, s4, s3, s2, s1)};
  }
}

template <ReconScheme R, class T>
inline FacePair<T> reconstruct_fixed(const T* s) {
  return reconstruct_vals<R>(s[0], s[1], s[2], s[3], s[4], s[5]);
}

/// Zero-size functor binding the scheme at compile time; the row-streaming
/// flux sweeps, templated on a recon operator, inline it into their face
/// loops (stencil rows, one value each).
template <ReconScheme R>
struct ReconFixed {
  template <class T>
  FacePair<T> vals(T s0, T s1, T s2, T s3, T s4, T s5) const {
    return reconstruct_vals<R, T>(s0, s1, s2, s3, s4, s5);
  }
};

/// Invoke `fn` with the ReconFixed functor matching a runtime `scheme` — the
/// thin runtime dispatcher solvers use at the compute_fluxes level.
template <class Fn>
decltype(auto) dispatch_recon(ReconScheme scheme, Fn&& fn) {
  switch (scheme) {
    case ReconScheme::kFirst: return fn(ReconFixed<ReconScheme::kFirst>{});
    case ReconScheme::kThird: return fn(ReconFixed<ReconScheme::kThird>{});
    case ReconScheme::kFifth: return fn(ReconFixed<ReconScheme::kFifth>{});
    case ReconScheme::kWeno5: return fn(ReconFixed<ReconScheme::kWeno5>{});
  }
  return fn(ReconFixed<ReconScheme::kFirst>{});
}

}  // namespace igr::fv

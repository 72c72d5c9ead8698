#pragma once
/// \file state.hpp
/// Small per-point state value types used inside flux kernels.

#include <array>
#include <cmath>

#include "common/field3.hpp"

namespace igr::common {

/// Conservative state at one point: (rho, rho*u, rho*v, rho*w, E).
template <class T>
struct Cons {
  T rho{}, mx{}, my{}, mz{}, e{};

  T& operator[](int c) {
    switch (c) {
      case kRho: return rho;
      case kMomX: return mx;
      case kMomY: return my;
      case kMomZ: return mz;
      default: return e;
    }
  }
  const T& operator[](int c) const {
    return const_cast<Cons&>(*this)[c];
  }

  friend Cons operator+(Cons a, const Cons& b) {
    a.rho += b.rho; a.mx += b.mx; a.my += b.my; a.mz += b.mz; a.e += b.e;
    return a;
  }
  friend Cons operator-(Cons a, const Cons& b) {
    a.rho -= b.rho; a.mx -= b.mx; a.my -= b.my; a.mz -= b.mz; a.e -= b.e;
    return a;
  }
  friend Cons operator*(T s, Cons a) {
    a.rho *= s; a.mx *= s; a.my *= s; a.mz *= s; a.e *= s;
    return a;
  }
};

/// Primitive state at one point: (rho, u, v, w, p).
template <class T>
struct Prim {
  T rho{}, u{}, v{}, w{}, p{};

  [[nodiscard]] T speed2() const { return u * u + v * v + w * w; }
};

/// Conserved totals of q's interior in double: the k/j/i/c sum of
/// `q * dv`, one fixed order so every caller's totals agree bitwise.
template <class S>
[[nodiscard]] Cons<double> conserved_totals(const StateField3<S>& q,
                                            double dv) {
  Cons<double> tot{};
  for (int k = 0; k < q.nz(); ++k)
    for (int j = 0; j < q.ny(); ++j)
      for (int i = 0; i < q.nx(); ++i)
        for (int c = 0; c < kNumVars; ++c)
          tot[c] += static_cast<double>(q[c](i, j, k)) * dv;
  return tot;
}

}  // namespace igr::common

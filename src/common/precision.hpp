#pragma once
/// \file precision.hpp
/// Precision policies: the paper's FP64, FP32, and mixed FP16-storage/FP32-
/// compute modes (§5.6).  Solvers are templated on a policy; `storage_t` is
/// what lives in the big state arrays, `compute_t` is what flux kernels use.
///
/// Besides the per-element `load`/`store`, policies expose *batch* line
/// hooks: `load_line`/`store_line` convert whole contiguous spans (and
/// `store_line_strided` scatters a strided one) between storage and compute
/// precision.  For FP64 and FP32 these are identity pass-throughs (a memcpy
/// / strided copy); for FP16/32 and BF16/32 they hit the batched conversion
/// lanes in common::half / common::bfloat16, which is what makes
/// mixed-precision storage competitive on CPUs (see PERF.md).  The batch
/// hooks are element-wise bitwise-identical to the per-element
/// `load`/`store` (tests/test_half_batch.cpp, tests/test_bfloat16.cpp).
///
/// Kernels that stream rows reach storage through `ComputeRows`, the one
/// place that decides between reading a field in place (FP64, FP32) and
/// converting it through scratch rows (FP16/32, BF16/32).

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>

#include "common/bfloat16.hpp"
#include "common/half.hpp"

namespace igr::common {

/// Full double precision (the CFD status quo the paper compares against).
struct Fp64 {
  using storage_t = double;
  using compute_t = double;
  static constexpr std::string_view name = "FP64";
};

/// Single-precision storage and compute.
struct Fp32 {
  using storage_t = float;
  using compute_t = float;
  static constexpr std::string_view name = "FP32";
};

/// Mixed mode: binary16 storage, binary32 compute (§5.6).  Viable for IGR
/// because its numerics are well-conditioned; WENO/HLLC baselines are not
/// stable below FP64 (§4.3), which the test suite demonstrates.
struct Fp16x32 {
  using storage_t = half;
  using compute_t = float;
  static constexpr std::string_view name = "FP16/32";
};

/// Mixed mode: bfloat16 storage, binary32 compute.  Trades binary16's 11
/// mantissa bits for binary32's full exponent range — the right end of the
/// range-vs-precision axis for blast/jet workloads whose pressures span
/// decades (Sedov, the Mach-10 jet family).
struct Bf16x32 {
  using storage_t = bfloat16;
  using compute_t = float;
  static constexpr std::string_view name = "BF16/32";
};

/// Storage types whose batch span converters live in a dedicated conversion
/// lane (common::half / common::bfloat16) rather than a cast loop.
template <class S>
inline constexpr bool has_conversion_lane =
    std::is_same_v<S, half> || std::is_same_v<S, bfloat16>;

/// Load a stored value at compute precision.
template <class Policy>
typename Policy::compute_t load(typename Policy::storage_t v) {
  return static_cast<typename Policy::compute_t>(v);
}

/// Round a computed value into storage precision.
template <class Policy>
typename Policy::storage_t store(typename Policy::compute_t v) {
  return static_cast<typename Policy::storage_t>(v);
}

/// True when the policy stores at a different precision than it computes
/// (i.e. loads/stores actually convert).
template <class Policy>
inline constexpr bool converts_storage =
    !std::is_same_v<typename Policy::storage_t, typename Policy::compute_t>;

/// Batch load: `dst[i] = compute(src[i])` for `n` contiguous elements.
template <class Policy>
inline void load_line(const typename Policy::storage_t* src,
                      typename Policy::compute_t* dst, std::size_t n) {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  if constexpr (std::is_same_v<S, C>) {
    std::memcpy(dst, src, n * sizeof(C));
  } else if constexpr (has_conversion_lane<S>) {
    convert_to_float(src, dst, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<C>(src[i]);
  }
}

/// Batch store: `dst[i] = storage(src[i])` for `n` contiguous elements.
template <class Policy>
inline void store_line(const typename Policy::compute_t* src,
                       typename Policy::storage_t* dst, std::size_t n) {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  if constexpr (std::is_same_v<S, C>) {
    std::memcpy(dst, src, n * sizeof(S));
  } else if constexpr (has_conversion_lane<S>) {
    convert_from_float(src, dst, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<S>(src[i]);
  }
}

/// Strided batch store: `dst[i * stride] = storage(src[i])`.
template <class Policy>
inline void store_line_strided(const typename Policy::compute_t* src,
                               typename Policy::storage_t* dst,
                               std::ptrdiff_t stride, std::size_t n) {
  using S = typename Policy::storage_t;
  if (stride == 1) return store_line<Policy>(src, dst, n);
  if constexpr (has_conversion_lane<S>) {
    constexpr std::size_t kChunk = 256;
    S tmp[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = (n - base < kChunk) ? (n - base) : kChunk;
      convert_from_float(src + base, tmp, m);
      S* d = dst + static_cast<std::ptrdiff_t>(base) * stride;
      for (std::size_t i = 0; i < m; ++i)
        d[static_cast<std::ptrdiff_t>(i) * stride] = tmp[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      dst[static_cast<std::ptrdiff_t>(i) * stride] = static_cast<S>(src[i]);
  }
}

/// Compute-precision rows of storage: a kernel fetches its input rows,
/// computes into an output row, and commits that row.  When storage is
/// compute precision (FP64, FP32), `fetch` and `out` return the field row
/// itself and `commit` does nothing, so fields are read and written in
/// place with no copy.  For 16-bit storage, `fetch` fills scratch slot `s`
/// through the batched lane (load_line), `out` hands out slot `s`, and
/// `commit` narrows the row back (store_line).  Slots hold `row_len`
/// elements each and are not zeroed (only converted or computed values are
/// read); one instance belongs to one team member.
template <class Policy>
class ComputeRows {
  using S = typename Policy::storage_t;
  using C = typename Policy::compute_t;
  static constexpr bool kInPlace = !converts_storage<Policy>;

 public:
  ComputeRows(std::size_t slots, std::size_t row_len)
      : row_len_(row_len),
        scratch_(kInPlace ? nullptr : new C[slots * row_len]) {}

  /// Row `src` (`n` <= row_len elements) at compute precision.
  const C* fetch(std::size_t s, const S* src, std::size_t n) {
    return fetch(s, const_cast<S*>(src), n);
  }
  /// Writable form, for a row updated in place and then committed.
  C* fetch(std::size_t s, S* src, std::size_t n) {
    if constexpr (kInPlace) {
      return src;
    } else {
      C* row = slot(s);
      load_line<Policy>(src, row, n);
      return row;
    }
  }

  /// Row to compute the output for storage row `dst` into.
  C* out(std::size_t s, S* dst) {
    if constexpr (kInPlace) {
      return dst;
    } else {
      return slot(s);
    }
  }

  /// Make `n` elements of `row` (from fetch/out for `dst`) the contents of
  /// `dst`.
  static void commit(const C* row, S* dst, std::size_t n) {
    if constexpr (!kInPlace) store_line<Policy>(row, dst, n);
  }

 private:
  C* slot(std::size_t s) { return scratch_.get() + s * row_len_; }

  std::size_t row_len_;
  std::unique_ptr<C[]> scratch_;
};

/// The policy that stores `S`, for kernels templated on the storage type.
template <class S>
struct StoragePolicy;
template <>
struct StoragePolicy<double> { using type = Fp64; };
template <>
struct StoragePolicy<float> { using type = Fp32; };
template <>
struct StoragePolicy<half> { using type = Fp16x32; };
template <>
struct StoragePolicy<bfloat16> { using type = Bf16x32; };
template <class S>
using storage_policy_t = typename StoragePolicy<S>::type;

}  // namespace igr::common

/// Equivalence tests for the batched binary16 conversion lanes: every
/// backend compiled into this build (branch-free bitwise kernel, and the
/// hardware F16C lanes where the configure probe enabled them) must be
/// *bitwise identical* to the per-element reference converters — over all
/// 65536 half patterns in the widening direction, and over a
/// deterministic-seed float corpus that hits every rounding branch
/// (normals, subnormal ties, the flush-to-zero band, the overflow
/// threshold, infinities, and NaN payloads) in the narrowing direction.
/// Odd lengths and unaligned spans are exercised so no backend can hide a
/// vector-width or alignment assumption.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/precision.hpp"

namespace {

using igr::common::half;
namespace hb = igr::common::half_batch;

using ToFloatFn = void (*)(const std::uint16_t*, float*, std::size_t);
using FromFloatFn = void (*)(const float*, std::uint16_t*, std::size_t);

struct NamedBackend {
  const char* name;
  ToFloatFn to_f32;
  FromFloatFn from_f32;
};

/// Every non-reference backend compiled into this build.
std::vector<NamedBackend> enabled_backends() {
  std::vector<NamedBackend> v;
  v.push_back({"bitwise", &hb::to_float_bitwise, &hb::from_float_bitwise});
#if defined(IGR_HALF_HAS_F16C)
  v.push_back({"f16c", &hb::to_float_f16c, &hb::from_float_f16c});
#endif
  return v;
}

std::uint32_t f32_bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float f32_from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

std::vector<std::uint16_t> all_half_patterns() {
  std::vector<std::uint16_t> v(65536);
  for (std::uint32_t b = 0; b <= 0xffffu; ++b)
    v[b] = static_cast<std::uint16_t>(b);
  return v;
}

/// Deterministic float corpus spanning every from_float branch: exact half
/// values, the branch thresholds and their neighborhoods, subnormal and
/// normal halfway ties, NaN payloads of both parities, and three flavors of
/// seeded randomness (uniform bit patterns, half-range-concentrated values,
/// and near-threshold jitter).
std::vector<float> from_float_corpus() {
  std::vector<float> v;
  v.reserve(300000);

  // Every value exactly representable in binary16 (including inf/NaN
  // payload images) — from_float must reproduce each one exactly.
  for (std::uint32_t b = 0; b <= 0xffffu; ++b)
    v.push_back(half::to_float(static_cast<std::uint16_t>(b)));

  // Branch thresholds, their float neighbors, and halfway ties.
  const std::uint32_t thresholds[] = {
      0x33000000u,  // half of the smallest subnormal (flush boundary)
      0x33800000u,  // smallest subnormal
      0x38800000u,  // smallest normal
      0x477ff000u,  // 65520: rounds-to-inf boundary
      0x47800000u,  // 2^16
      0x7f800000u,  // inf
      0x38000000u, 0x3f800000u, 0x477fe000u, 0x477fefffu,
  };
  for (std::uint32_t t : thresholds) {
    for (int d = -3; d <= 3; ++d) {
      const std::uint32_t u = t + static_cast<std::uint32_t>(d);
      v.push_back(f32_from_bits(u));
      v.push_back(f32_from_bits(u | 0x80000000u));
    }
  }
  const float sub_ulp = std::ldexp(1.0f, -24);
  for (int k = 0; k <= 40; ++k) {
    v.push_back((static_cast<float>(k) + 0.5f) * sub_ulp);  // subnormal ties
    v.push_back(-(static_cast<float>(k) + 0.5f) * sub_ulp);
  }
  for (int e = -14; e <= 15; ++e) {
    // Normal-range ties: odd multiples of half a half-ulp.
    const float base = std::ldexp(1.0f, e);
    const float hulp = std::ldexp(1.0f, e - 11);
    for (int m : {1, 2, 3, 1022, 1023}) {
      v.push_back(base + (static_cast<float>(m) + 0.5f) * hulp * 2.0f);
      v.push_back(base + (static_cast<float>(m) * 2.0f + 1.0f) * hulp);
    }
  }
  // NaN payloads: quiet and signaling, both signs, payload bits above and
  // below the 10-bit truncation line.
  for (std::uint32_t payload :
       {0x1u, 0x1fffu, 0x2000u, 0x12345u, 0x3fffffu, 0x200000u, 0x3fe000u}) {
    v.push_back(f32_from_bits(0x7f800000u | payload));
    v.push_back(f32_from_bits(0xff800000u | payload));
    v.push_back(f32_from_bits(0x7fc00000u | payload));
    v.push_back(f32_from_bits(0xffc00000u | payload));
  }

  std::mt19937 rng(12345u);
  // Uniform over the whole bit space (hits NaN/inf/denormal classes).
  for (int i = 0; i < 100000; ++i)
    v.push_back(f32_from_bits(static_cast<std::uint32_t>(rng())));
  // Concentrated in and just beyond the half range.
  std::uniform_int_distribution<std::uint32_t> exp_dist(95, 145);
  std::uniform_int_distribution<std::uint32_t> mant_dist(0, 0x007fffffu);
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t sign = (rng() & 1u) << 31;
    v.push_back(f32_from_bits(sign | (exp_dist(rng) << 23) | mant_dist(rng)));
  }
  return v;
}

TEST(HalfBatch, ToFloatAllPatternsBitwiseEqualsReference) {
  const auto src = all_half_patterns();
  std::vector<float> ref(src.size()), out(src.size());
  hb::to_float_reference(src.data(), ref.data(), src.size());
  for (const auto& b : enabled_backends()) {
    std::fill(out.begin(), out.end(), 0.0f);
    b.to_f32(src.data(), out.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(f32_bits(out[i]), f32_bits(ref[i]))
          << b.name << ": half bits 0x" << std::hex << src[i];
    }
  }
}

TEST(HalfBatch, FromFloatCorpusBitwiseEqualsReference) {
  const auto src = from_float_corpus();
  std::vector<std::uint16_t> ref(src.size()), out(src.size());
  hb::from_float_reference(src.data(), ref.data(), src.size());
  for (const auto& b : enabled_backends()) {
    std::fill(out.begin(), out.end(), std::uint16_t{0xdeadu & 0xffffu});
    b.from_f32(src.data(), out.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(out[i], ref[i])
          << b.name << ": float bits 0x" << std::hex << f32_bits(src[i]);
    }
  }
}

TEST(HalfBatch, OddLengthsAndUnalignedSpans) {
  // No backend may assume a vector-multiple length or aligned spans: every
  // (length, source offset, destination offset) combination must match the
  // reference exactly and leave bytes beyond the span untouched.
  std::mt19937 rng(987654u);
  const std::size_t cap = 4 * 1024;
  std::vector<std::uint16_t> hsrc(cap);
  std::vector<float> fsrc(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    hsrc[i] = static_cast<std::uint16_t>(rng());
    fsrc[i] = f32_from_bits(static_cast<std::uint32_t>(rng()));
  }
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 64, 65, 255, 257};
  for (const auto& b : enabled_backends()) {
    for (std::size_t n : lengths) {
      for (std::size_t so = 0; so < 3; ++so) {
        for (std::size_t doff = 0; doff < 3; ++doff) {
          {
            std::vector<float> ref(n + doff + 1, -7.0f), out(n + doff + 1, -7.0f);
            hb::to_float_reference(hsrc.data() + so, ref.data() + doff, n);
            b.to_f32(hsrc.data() + so, out.data() + doff, n);
            for (std::size_t i = 0; i < out.size(); ++i)
              ASSERT_EQ(f32_bits(out[i]), f32_bits(ref[i]))
                  << b.name << " n=" << n << " so=" << so << " do=" << doff;
          }
          {
            std::vector<std::uint16_t> ref(n + doff + 1, 0xbeefu);
            std::vector<std::uint16_t> out(n + doff + 1, 0xbeefu);
            hb::from_float_reference(fsrc.data() + so, ref.data() + doff, n);
            b.from_f32(fsrc.data() + so, out.data() + doff, n);
            for (std::size_t i = 0; i < out.size(); ++i)
              ASSERT_EQ(out[i], ref[i])
                  << b.name << " n=" << n << " so=" << so << " do=" << doff;
          }
        }
      }
    }
  }
}

TEST(HalfBatch, PublicApiMatchesReferenceAndRoundTrips) {
  // The dispatching entry points (whatever backend the build selected) obey
  // the same contract; round-tripping every pattern through them is the
  // batch analogue of the scalar exhaustive test.
  const auto patterns = all_half_patterns();
  const auto n = patterns.size();
  std::vector<half> hs(n);
  for (std::size_t i = 0; i < n; ++i) hs[i] = half::from_bits(patterns[i]);
  std::vector<float> widened(n), ref(n);
  igr::common::convert_to_float(hs.data(), widened.data(), n);
  hb::to_float_reference(patterns.data(), ref.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(f32_bits(widened[i]), f32_bits(ref[i])) << i;

  std::vector<half> back(n);
  igr::common::convert_from_float(widened.data(), back.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t b = patterns[i];
    const bool is_nan = ((b & 0x7c00u) == 0x7c00u) && ((b & 0x03ffu) != 0u);
    if (is_nan) {
      ASSERT_EQ(back[i].bits(), b | 0x0200u) << std::hex << b;  // quietened
    } else {
      ASSERT_EQ(back[i].bits(), b) << std::hex << b;
    }
  }
}

TEST(HalfBatch, StridedStoreMatchesPerElementAcrossChunkBoundaries) {
  // The policy-level strided store scatters through fixed-size stack
  // chunks; spans longer than one chunk (256 elements) must split without
  // dropping, duplicating, or mis-indexing elements for any stride —
  // including stride 2, the red–black scatter pattern.
  using igr::common::Fp16x32;
  std::mt19937 rng(24680u);
  const std::size_t lengths[] = {1, 7, 255, 256, 257, 511, 513, 1000};
  const std::ptrdiff_t strides[] = {1, 2, 3, 7};
  for (const std::size_t n : lengths) {
    for (const std::ptrdiff_t stride : strides) {
      const std::size_t span = (n - 1) * static_cast<std::size_t>(stride) + 1;
      std::vector<float> fsrc(n);
      for (auto& f : fsrc) f = f32_from_bits(static_cast<std::uint32_t>(rng()));
      std::vector<half> hgot(span, half::from_bits(0x1234u));
      std::vector<half> hwant(span, half::from_bits(0x1234u));
      igr::common::store_line_strided<Fp16x32>(fsrc.data(), hgot.data(),
                                               stride, n);
      for (std::size_t i = 0; i < n; ++i)
        hwant[i * static_cast<std::size_t>(stride)] = half(fsrc[i]);
      for (std::size_t i = 0; i < span; ++i)
        ASSERT_EQ(hgot[i].bits(), hwant[i].bits())
            << "store n=" << n << " stride=" << stride << " i=" << i;
    }
  }
}

/// ComputeRows on identity storage: fetch and out return the storage row
/// itself, so FP64/FP32 kernels read and write fields in place, no copy.
template <class Policy>
void expect_rows_in_place() {
  using S = typename Policy::storage_t;
  std::vector<S> a(37, S(1.5)), b(37, S(-2.5));
  igr::common::ComputeRows<Policy> rows(2, a.size());
  const S* ca = a.data();
  EXPECT_EQ(rows.fetch(0, ca, a.size()), ca);
  EXPECT_EQ(rows.fetch(1, b.data(), b.size()), b.data());
  EXPECT_EQ(rows.out(1, b.data()), b.data());
  igr::common::ComputeRows<Policy>::commit(b.data(), b.data(), b.size());
  EXPECT_EQ(b[0], S(-2.5));
}

/// ComputeRows on 16-bit storage: every fetched row — all 65536 patterns —
/// is bitwise the per-element `load`, and committing a computed row (the
/// narrowing corpus) is bitwise the per-element `store`.
template <class Policy>
void expect_rows_convert() {
  using S = typename Policy::storage_t;
  const auto patterns = all_half_patterns();
  const std::size_t n = patterns.size();
  std::vector<S> src(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = S::from_bits(patterns[i]);
  const auto corpus = from_float_corpus();
  igr::common::ComputeRows<Policy> rows(2, corpus.size());

  const S* csrc = src.data();
  const float* got = rows.fetch(0, csrc, n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(f32_bits(got[i]), f32_bits(igr::common::load<Policy>(src[i])))
        << Policy::name << " fetch i=" << i;

  // A writable fetch round-trips the row unchanged.
  std::vector<S> io = src;
  float* row = rows.fetch(1, io.data(), n);
  igr::common::ComputeRows<Policy>::commit(row, io.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const S want =
        igr::common::store<Policy>(igr::common::load<Policy>(src[i]));
    ASSERT_EQ(io[i].bits(), want.bits()) << Policy::name << " io i=" << i;
  }

  std::vector<S> dst(corpus.size());
  float* out = rows.out(1, dst.data());
  std::copy(corpus.begin(), corpus.end(), out);
  igr::common::ComputeRows<Policy>::commit(out, dst.data(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    ASSERT_EQ(dst[i].bits(), igr::common::store<Policy>(corpus[i]).bits())
        << Policy::name << " commit i=" << i;
}

TEST(ComputeRows, IdentityStorageRowsAreReadInPlace) {
  expect_rows_in_place<igr::common::Fp64>();
  expect_rows_in_place<igr::common::Fp32>();
}

TEST(ComputeRows, SixteenBitRowsMatchPerElementLoadAndStore) {
  expect_rows_convert<igr::common::Fp16x32>();
  expect_rows_convert<igr::common::Bf16x32>();
}

TEST(HalfBatch, BackendReportingIsConsistent) {
  const auto name = hb::backend_name();
  EXPECT_TRUE(name == "f16c" || name == "bitwise" || name == "scalar")
      << name;
  if (hb::active_backend() == hb::Backend::kF16c) {
    EXPECT_TRUE(hb::f16c_compiled());
  }
}

}  // namespace

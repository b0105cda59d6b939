// AVX-512 kernel tier: 512-bit vertical ops (8 doubles) + i32 gathers.
// Compiled with -mavx2 -mavx512f -mavx512dq -ffp-contract=off (see
// src/linalg/CMakeLists.txt); only reached when dispatch.cpp probed
// AVX-512 support at runtime. All shared logic lives in kernels_body.inc
// — this TU only binds the vector primitives.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "linalg/simd/kernels_detail.hpp"
#include "util/prefetch.hpp"

#if !defined(SOCMIX_SIMD_HAVE_AVX512)
#error "kernels_avx512.cpp requires SOCMIX_SIMD_HAVE_AVX512 (see src/linalg/CMakeLists.txt)"
#endif

namespace socmix::linalg::simd::avx512 {

namespace {

using vd = __m512d;
constexpr std::size_t kW = 8;

inline vd vd_zero() noexcept { return _mm512_setzero_pd(); }
inline vd vd_loadu(const double* p) noexcept { return _mm512_loadu_pd(p); }
inline void vd_storeu(double* p, vd v) noexcept { _mm512_storeu_pd(p, v); }
inline vd vd_set1(double x) noexcept { return _mm512_set1_pd(x); }
inline vd vd_add(vd a, vd b) noexcept { return _mm512_add_pd(a, b); }
inline vd vd_sub(vd a, vd b) noexcept { return _mm512_sub_pd(a, b); }
inline vd vd_mul(vd a, vd b) noexcept { return _mm512_mul_pd(a, b); }
inline vd vd_abs(vd v) noexcept {
  return _mm512_castsi512_pd(_mm512_and_epi64(
      _mm512_castpd_si512(v), _mm512_set1_epi64(INT64_C(0x7fffffffffffffff))));
}
inline vd vd_select_ge_abs(vd s, vd t, vd x, vd y) noexcept {
  const __mmask8 m = _mm512_cmp_pd_mask(vd_abs(s), vd_abs(t), _CMP_GE_OQ);
  return _mm512_mask_blend_pd(m, y, x);
}
// Conversions and the gather use their masked forms under an all-lanes
// mask: the same instructions and bits as the unmasked intrinsics, whose
// GCC 12 headers pass an undefined vector as the merge source and so trip
// -Wmaybe-uninitialized.
constexpr __mmask8 kAllLanes = 0xFF;
inline vd vd_cvt_f32_loadu(const float* p) noexcept {
  return _mm512_maskz_cvtps_pd(kAllLanes, _mm256_loadu_ps(p));
}
inline vd vd_roundtrip_store_f32(float* p, vd v) noexcept {
  const __m256 f = _mm512_maskz_cvtpd_ps(kAllLanes, v);
  _mm256_storeu_ps(p, f);
  return _mm512_maskz_cvtps_pd(kAllLanes, f);
}
// i32 gather: sign-extends the u32 node ids, so it requires
// num_nodes < 2^31 (see kernels.hpp).
inline vd vd_gather_i32(const double* base, const graph::NodeId* idx) noexcept {
  return _mm512_mask_i32gather_pd(
      _mm512_setzero_pd(), kAllLanes,
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), base, 8);
}

}  // namespace

#include "linalg/simd/kernels_body.inc"

}  // namespace socmix::linalg::simd::avx512

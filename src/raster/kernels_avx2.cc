// 256-bit kernel table. Compiled with -mavx2 (see src/raster/CMakeLists.txt)
// and only ever dispatched to after a runtime CPUID check; must produce
// bit-identical results to kernels_scalar.cc on every input.
#include "raster/kernels.h"

#if URBANE_RASTER_X86

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "raster/kernels_inl.h"

namespace urbane::raster {
namespace {

std::size_t ComputePixelIndicesAvx2(const SplatGeometry& g, const float* xs,
                                    const float* ys, std::size_t count,
                                    std::uint32_t* out) {
  const __m256d min_x = _mm256_set1_pd(g.min_x);
  const __m256d max_x = _mm256_set1_pd(g.max_x);
  const __m256d min_y = _mm256_set1_pd(g.min_y);
  const __m256d max_y = _mm256_set1_pd(g.max_y);
  const __m256d pw = _mm256_set1_pd(g.pixel_w);
  const __m256d ph = _mm256_set1_pd(g.pixel_h);
  const __m128i width = _mm_set1_epi32(g.width);
  const __m128i height = _mm_set1_epi32(g.height);

  std::size_t hits = 0;
  std::size_t i = 0;
  alignas(16) std::uint32_t idx[4];
  for (; i + 4 <= count; i += 4) {
    // Four points per iteration: widen the floats to double and replicate
    // the scalar arithmetic lane-wise (same IEEE divide, same truncation).
    const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(xs + i));
    const __m256d yd = _mm256_cvtps_pd(_mm_loadu_ps(ys + i));
    // _CMP_*_OQ compares are ordered: NaN lanes come out invalid.
    const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(xd, min_x, _CMP_GE_OQ),
                                       _mm256_cmp_pd(xd, max_x, _CMP_LE_OQ));
    const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(yd, min_y, _CMP_GE_OQ),
                                       _mm256_cmp_pd(yd, max_y, _CMP_LE_OQ));
    const unsigned valid = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_and_pd(in_x, in_y)));

    __m128i ix4 =
        _mm256_cvttpd_epi32(_mm256_div_pd(_mm256_sub_pd(xd, min_x), pw));
    __m128i iy4 =
        _mm256_cvttpd_epi32(_mm256_div_pd(_mm256_sub_pd(yd, min_y), ph));
    // Closed max-edge fold: lanes equal to width/height step back by one.
    ix4 = _mm_add_epi32(ix4, _mm_cmpeq_epi32(ix4, width));
    iy4 = _mm_add_epi32(iy4, _mm_cmpeq_epi32(iy4, height));
    _mm_store_si128(reinterpret_cast<__m128i*>(idx),
                    _mm_add_epi32(_mm_mullo_epi32(iy4, width), ix4));
    for (int k = 0; k < 4; ++k) {
      out[i + k] = (valid >> k) & 1u ? idx[k] : kInvalidPixel;
    }
    hits += static_cast<std::size_t>(__builtin_popcount(valid));
  }
  for (; i < count; ++i) {
    out[i] = internal::ScalarPixelIndex(g, xs[i], ys[i]);
    hits += out[i] != kInvalidPixel;
  }
  return hits;
}

std::uint64_t SumSpanU32Avx2(const std::uint32_t* v, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();  // four u64 lanes
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_add_epi64(acc, _mm256_unpacklo_epi32(x, zero));
    acc = _mm256_add_epi64(acc, _mm256_unpackhi_epi32(x, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         internal::ScalarSumSpanU32(v + i, n - i);
}

std::size_t GatherNonZeroU32Avx2(const std::uint32_t* v, std::size_t n,
                                 std::uint32_t* out) {
  std::size_t found = 0;
  std::size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
                     _mm256_castsi256_ps(_mm256_cmpeq_epi32(x, zero)))) ^
                 0xFFu;
    while (m != 0) {
      const unsigned k = static_cast<unsigned>(__builtin_ctz(m));
      out[found++] = static_cast<std::uint32_t>(i) + k;
      m &= m - 1;
    }
  }
  found += internal::ScalarGatherNonZeroU32(v + i, n - i,
                                            static_cast<std::uint32_t>(i),
                                            out + found);
  return found;
}

// mask[k] &= bit k of `bits` for k in [0, 32): byte j of `bits` goes to
// mask bytes 8j..8j+7 (vpshufb works per 128-bit lane, and each lane holds
// all four bytes of the broadcast), each byte keeps its own bit, and the
// survivors clamp to 1.
inline void AndMaskBits32(std::uint8_t* mask, std::uint32_t bits) {
  const __m256i spread = _mm256_shuffle_epi8(
      _mm256_set1_epi32(static_cast<int>(bits)),
      _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
                       2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3));
  const __m256i select = _mm256_set1_epi64x(0x8040201008040201LL);
  const __m256i pass = _mm256_min_epu8(_mm256_and_si256(spread, select),
                                       _mm256_set1_epi8(1));
  __m256i* at = reinterpret_cast<__m256i*>(mask);
  _mm256_storeu_si256(at, _mm256_and_si256(_mm256_loadu_si256(at), pass));
}

void AndTimeRangeAvx2(const std::int64_t* t, std::size_t n,
                      std::int64_t begin, std::int64_t end,
                      std::uint8_t* mask) {
  const __m256i vbegin = _mm256_set1_epi64x(begin);
  const __m256i vend = _mm256_set1_epi64x(end);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint32_t bits = 0;
    for (int q = 0; q < 8; ++q) {
      const __m256i x = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(t + i + 4 * q));
      // begin <= t is !(begin > t); t < end is end > t (signed compares).
      const __m256i in = _mm256_andnot_si256(_mm256_cmpgt_epi64(vbegin, x),
                                             _mm256_cmpgt_epi64(vend, x));
      bits |= static_cast<std::uint32_t>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(in)))
              << (4 * q);
    }
    AndMaskBits32(mask + i, bits);
  }
  internal::ScalarAndTimeRange(t + i, n - i, begin, end, mask + i);
}

void AndFloatRangeAvx2(const float* v, std::size_t n, float lo, float hi,
                       std::uint8_t* mask) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint32_t bits = 0;
    for (int q = 0; q < 4; ++q) {
      const __m256 x = _mm256_loadu_ps(v + i + 8 * q);
      // _CMP_*_OQ compares are ordered: NaN lanes fail.
      const __m256 in = _mm256_and_ps(_mm256_cmp_ps(x, vlo, _CMP_GE_OQ),
                                      _mm256_cmp_ps(x, vhi, _CMP_LE_OQ));
      bits |= static_cast<std::uint32_t>(_mm256_movemask_ps(in)) << (8 * q);
    }
    AndMaskBits32(mask + i, bits);
  }
  internal::ScalarAndFloatRange(v + i, n - i, lo, hi, mask + i);
}

void AndWindowAvx2(const geometry::BoundingBox& box, const float* xs,
                   const float* ys, std::size_t n, std::uint8_t* mask) {
  const __m256d min_x = _mm256_set1_pd(box.min_x);
  const __m256d max_x = _mm256_set1_pd(box.max_x);
  const __m256d min_y = _mm256_set1_pd(box.min_y);
  const __m256d max_y = _mm256_set1_pd(box.max_y);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint32_t bits = 0;
    for (int q = 0; q < 8; ++q) {
      // Widen four floats to double, as BoundingBox::Contains compares.
      const __m256d xd = _mm256_cvtps_pd(_mm_loadu_ps(xs + i + 4 * q));
      const __m256d yd = _mm256_cvtps_pd(_mm_loadu_ps(ys + i + 4 * q));
      const __m256d in = _mm256_and_pd(
          _mm256_and_pd(_mm256_cmp_pd(xd, min_x, _CMP_GE_OQ),
                        _mm256_cmp_pd(xd, max_x, _CMP_LE_OQ)),
          _mm256_and_pd(_mm256_cmp_pd(yd, min_y, _CMP_GE_OQ),
                        _mm256_cmp_pd(yd, max_y, _CMP_LE_OQ)));
      bits |= static_cast<std::uint32_t>(_mm256_movemask_pd(in)) << (4 * q);
    }
    AndMaskBits32(mask + i, bits);
  }
  internal::ScalarAndWindow(box, xs + i, ys + i, n - i, mask + i);
}

}  // namespace

const RasterKernels kAvx2RasterKernels = {
    "avx2",
    &ComputePixelIndicesAvx2,
    &SumSpanU32Avx2,
    &GatherNonZeroU32Avx2,
    &AndTimeRangeAvx2,
    &AndFloatRangeAvx2,
    &AndWindowAvx2,
};

}  // namespace urbane::raster

#endif  // URBANE_RASTER_X86

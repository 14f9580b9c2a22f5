// 128-bit kernel table. SSE2 is the x86-64 baseline, so this TU needs no
// special compile flags; it must produce bit-identical results to
// kernels_scalar.cc on every input (enforced by tests/raster/simd_*).
#include "raster/kernels.h"

#if URBANE_RASTER_X86

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "raster/kernels_inl.h"

namespace urbane::raster {
namespace {

// iy * width + ix for four u32 lanes without SSE4.1's _mm_mullo_epi32:
// multiply the even and odd lanes with _mm_mul_epu32 and re-interleave the
// low halves (the products fit 32 bits for any in-canvas pixel).
inline __m128i MulAddU32(__m128i iy, __m128i width, __m128i ix) {
  const __m128i even = _mm_mul_epu32(iy, width);
  const __m128i odd =
      _mm_mul_epu32(_mm_srli_si128(iy, 4), _mm_srli_si128(width, 4));
  const __m128i lo =
      _mm_unpacklo_epi32(_mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
                         _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
  return _mm_add_epi32(lo, ix);
}

std::size_t ComputePixelIndicesSse2(const SplatGeometry& g, const float* xs,
                                    const float* ys, std::size_t count,
                                    std::uint32_t* out) {
  const __m128d min_x = _mm_set1_pd(g.min_x), max_x = _mm_set1_pd(g.max_x);
  const __m128d min_y = _mm_set1_pd(g.min_y), max_y = _mm_set1_pd(g.max_y);
  const __m128d pw = _mm_set1_pd(g.pixel_w), ph = _mm_set1_pd(g.pixel_h);
  const __m128i width = _mm_set1_epi32(g.width);
  const __m128i height = _mm_set1_epi32(g.height);

  std::size_t hits = 0;
  std::size_t i = 0;
  alignas(16) std::uint32_t idx[4];
  for (; i + 4 <= count; i += 4) {
    const __m128 xf = _mm_loadu_ps(xs + i);
    const __m128 yf = _mm_loadu_ps(ys + i);

    __m128i ix4 = _mm_setzero_si128();
    __m128i iy4 = _mm_setzero_si128();
    unsigned valid = 0;
    for (int half = 0; half < 2; ++half) {
      const __m128d xd = half == 0 ? _mm_cvtps_pd(xf)
                                   : _mm_cvtps_pd(_mm_movehl_ps(xf, xf));
      const __m128d yd = half == 0 ? _mm_cvtps_pd(yf)
                                   : _mm_cvtps_pd(_mm_movehl_ps(yf, yf));
      // Ordered compares: NaN lanes come out invalid, as in the scalar path.
      const __m128d in_x =
          _mm_and_pd(_mm_cmpge_pd(xd, min_x), _mm_cmple_pd(xd, max_x));
      const __m128d in_y =
          _mm_and_pd(_mm_cmpge_pd(yd, min_y), _mm_cmple_pd(yd, max_y));
      valid |= static_cast<unsigned>(
                   _mm_movemask_pd(_mm_and_pd(in_x, in_y)))
               << (2 * half);
      // Same IEEE ops as the scalar path: subtract, divide, truncate.
      const __m128i ix2 = _mm_cvttpd_epi32(_mm_div_pd(_mm_sub_pd(xd, min_x), pw));
      const __m128i iy2 = _mm_cvttpd_epi32(_mm_div_pd(_mm_sub_pd(yd, min_y), ph));
      if (half == 0) {
        ix4 = ix2;
        iy4 = iy2;
      } else {
        ix4 = _mm_unpacklo_epi64(ix4, ix2);
        iy4 = _mm_unpacklo_epi64(iy4, iy2);
      }
    }
    // Closed max-edge fold: lanes equal to width/height step back by one
    // (the compare mask is -1 in matching lanes).
    ix4 = _mm_add_epi32(ix4, _mm_cmpeq_epi32(ix4, width));
    iy4 = _mm_add_epi32(iy4, _mm_cmpeq_epi32(iy4, height));
    _mm_store_si128(reinterpret_cast<__m128i*>(idx),
                    MulAddU32(iy4, width, ix4));
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

std::uint64_t SumSpanU32Sse2(const std::uint32_t* v, std::size_t n) {
  __m128i acc = _mm_setzero_si128();  // two u64 lanes
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    acc = _mm_add_epi64(acc, _mm_unpacklo_epi32(x, zero));
    acc = _mm_add_epi64(acc, _mm_unpackhi_epi32(x, zero));
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
  return lanes[0] + lanes[1] + internal::ScalarSumSpanU32(v + i, n - i);
}

std::size_t GatherNonZeroU32Sse2(const std::uint32_t* v, std::size_t n,
                                 std::uint32_t* out) {
  std::size_t found = 0;
  std::size_t i = 0;
  const __m128i zero = _mm_setzero_si128();
  for (; i + 4 <= n; i += 4) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    unsigned m = static_cast<unsigned>(_mm_movemask_ps(
                     _mm_castsi128_ps(_mm_cmpeq_epi32(x, zero)))) ^
                 0xFu;
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

// mask[k] &= bit k of `bits` for k in [0, 16): broadcast byte 0 of `bits`
// to mask bytes 0-7 and byte 1 to bytes 8-15, keep each byte's own bit,
// then clamp the survivors to 1.
inline void AndMaskBits16(std::uint8_t* mask, unsigned bits) {
  __m128i spread = _mm_cvtsi32_si128(static_cast<int>(bits));
  spread = _mm_unpacklo_epi8(spread, spread);
  spread = _mm_unpacklo_epi16(spread, spread);
  spread = _mm_unpacklo_epi32(spread, spread);
  const __m128i select = _mm_set1_epi64x(0x8040201008040201LL);
  const __m128i pass =
      _mm_min_epu8(_mm_and_si128(spread, select), _mm_set1_epi8(1));
  __m128i* at = reinterpret_cast<__m128i*>(mask);
  _mm_storeu_si128(at, _mm_and_si128(_mm_loadu_si128(at), pass));
}

// SSE2 has no 64-bit compare (pcmpgtq is SSE4.2), so the time range runs
// the scalar specification at this level.
void AndTimeRangeSse2(const std::int64_t* t, std::size_t n,
                      std::int64_t begin, std::int64_t end,
                      std::uint8_t* mask) {
  internal::ScalarAndTimeRange(t, n, begin, end, mask);
}

void AndFloatRangeSse2(const float* v, std::size_t n, float lo, float hi,
                       std::uint8_t* mask) {
  const __m128 vlo = _mm_set1_ps(lo);
  const __m128 vhi = _mm_set1_ps(hi);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    unsigned bits = 0;
    for (int q = 0; q < 4; ++q) {
      const __m128 x = _mm_loadu_ps(v + i + 4 * q);
      // cmpge/cmple are ordered: NaN lanes fail, as in the scalar path.
      const __m128 in = _mm_and_ps(_mm_cmpge_ps(x, vlo), _mm_cmple_ps(x, vhi));
      bits |= static_cast<unsigned>(_mm_movemask_ps(in)) << (4 * q);
    }
    AndMaskBits16(mask + i, bits);
  }
  internal::ScalarAndFloatRange(v + i, n - i, lo, hi, mask + i);
}

void AndWindowSse2(const geometry::BoundingBox& box, const float* xs,
                   const float* ys, std::size_t n, std::uint8_t* mask) {
  const __m128d min_x = _mm_set1_pd(box.min_x);
  const __m128d max_x = _mm_set1_pd(box.max_x);
  const __m128d min_y = _mm_set1_pd(box.min_y);
  const __m128d max_y = _mm_set1_pd(box.max_y);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    unsigned bits = 0;
    for (int q = 0; q < 4; ++q) {
      const __m128 xf = _mm_loadu_ps(xs + i + 4 * q);
      const __m128 yf = _mm_loadu_ps(ys + i + 4 * q);
      for (int half = 0; half < 2; ++half) {
        const __m128d xd = half == 0 ? _mm_cvtps_pd(xf)
                                     : _mm_cvtps_pd(_mm_movehl_ps(xf, xf));
        const __m128d yd = half == 0 ? _mm_cvtps_pd(yf)
                                     : _mm_cvtps_pd(_mm_movehl_ps(yf, yf));
        const __m128d in = _mm_and_pd(
            _mm_and_pd(_mm_cmpge_pd(xd, min_x), _mm_cmple_pd(xd, max_x)),
            _mm_and_pd(_mm_cmpge_pd(yd, min_y), _mm_cmple_pd(yd, max_y)));
        bits |= static_cast<unsigned>(_mm_movemask_pd(in))
                << (4 * q + 2 * half);
      }
    }
    AndMaskBits16(mask + i, bits);
  }
  internal::ScalarAndWindow(box, xs + i, ys + i, n - i, mask + i);
}

}  // namespace

const RasterKernels kSse2RasterKernels = {
    "sse2",
    &ComputePixelIndicesSse2,
    &SumSpanU32Sse2,
    &GatherNonZeroU32Sse2,
    &AndTimeRangeSse2,
    &AndFloatRangeSse2,
    &AndWindowSse2,
};

}  // namespace urbane::raster

#endif  // URBANE_RASTER_X86

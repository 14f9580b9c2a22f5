// Portable scalar kernel table: the executable specification the SSE2/AVX2
// tables must match bit-for-bit. The bodies live in kernels_inl.h so the
// vector translation units reuse them verbatim for loop tails.
#include <cstddef>
#include <cstdint>

#include "raster/kernels.h"
#include "raster/kernels_inl.h"

namespace urbane::raster {
namespace {

std::size_t ComputePixelIndicesScalar(const SplatGeometry& g, const float* xs,
                                      const float* ys, std::size_t count,
                                      std::uint32_t* out) {
  return internal::ScalarComputePixelIndices(g, xs, ys, count, out);
}

std::uint64_t SumSpanU32Scalar(const std::uint32_t* v, std::size_t n) {
  return internal::ScalarSumSpanU32(v, n);
}

std::size_t GatherNonZeroU32Scalar(const std::uint32_t* v, std::size_t n,
                                   std::uint32_t* out) {
  return internal::ScalarGatherNonZeroU32(v, n, 0, out);
}

void AndTimeRangeScalar(const std::int64_t* t, std::size_t n,
                        std::int64_t begin, std::int64_t end,
                        std::uint8_t* mask) {
  internal::ScalarAndTimeRange(t, n, begin, end, mask);
}

void AndFloatRangeScalar(const float* v, std::size_t n, float lo, float hi,
                         std::uint8_t* mask) {
  internal::ScalarAndFloatRange(v, n, lo, hi, mask);
}

void AndWindowScalar(const geometry::BoundingBox& box, const float* xs,
                     const float* ys, std::size_t n, std::uint8_t* mask) {
  internal::ScalarAndWindow(box, xs, ys, n, mask);
}

}  // namespace

const RasterKernels kScalarRasterKernels = {
    "off",
    &ComputePixelIndicesScalar,
    &SumSpanU32Scalar,
    &GatherNonZeroU32Scalar,
    &AndTimeRangeScalar,
    &AndFloatRangeScalar,
    &AndWindowScalar,
};

}  // namespace urbane::raster

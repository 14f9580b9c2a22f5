#ifndef URBANE_RASTER_SIMD_H_
#define URBANE_RASTER_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace urbane::raster {

/// Vector width tier the raster kernels run at. Levels are totally ordered:
/// a CPU that can run kAvx2 can also run kSse2 and kOff; the dispatcher
/// clamps any request to what the hardware supports.
///
/// Every level computes the *same* function bit-for-bit: the kernels are
/// specified in integer / IEEE-754 terms that do not depend on lane count
/// (see DESIGN.md "SIMD splat, sweep and filter kernels"), so switching
/// levels can change speed but never results. That is what lets the
/// determinism suites run the identical assertions at every level.
enum class SimdLevel : int {
  kOff = 0,   // portable scalar kernels
  kSse2 = 1,  // 128-bit kernels (x86-64 baseline)
  kAvx2 = 2,  // 256-bit kernels
};

/// Human-readable level name ("off", "sse2", "avx2").
const char* SimdLevelName(SimdLevel level);

/// Parses a URBANE_SIMD value. Accepts "off"/"scalar"/"none"/"0", "sse2",
/// "avx2", and "auto" (reported as the CPU maximum). Returns false for
/// anything else.
bool ParseSimdLevel(const char* text, SimdLevel& level, bool& is_auto);

/// Highest level this CPU supports (queried once, then cached).
SimdLevel CpuMaxSimdLevel();

/// The level the raster kernels currently dispatch to. Resolution order:
///   1. an explicit SetSimdLevel() call (tests sweep levels in-process),
///   2. the URBANE_SIMD environment variable (off|sse2|avx2|auto),
///   3. auto: the CPU maximum.
/// Requests above CpuMaxSimdLevel() are clamped, so URBANE_SIMD=avx2 on an
/// SSE2-only machine runs the sse2 kernels rather than crashing.
SimdLevel ActiveSimdLevel();

/// Forces the dispatch level (clamped to the CPU maximum; returns the level
/// actually installed). Not thread-safe against in-flight queries — callers
/// (tests, bench mains) switch levels only between queries.
SimdLevel SetSimdLevel(SimdLevel level);

/// Drops any SetSimdLevel() override and re-reads URBANE_SIMD.
void ResetSimdLevelFromEnv();

}  // namespace urbane::raster

#endif  // URBANE_RASTER_SIMD_H_

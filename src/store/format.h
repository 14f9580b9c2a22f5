#ifndef URBANE_STORE_FORMAT_H_
#define URBANE_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace urbane::store {

/// On-disk layout of a block-partitioned point store (format "UST1").
///
///   header:
///     magic            "UST1"                       (4 bytes)
///     version          u32                           (currently 1)
///     row_count        u64
///     block_rows       u64   nominal rows per block (last block may be
///                            shorter)
///     block_count      u64
///     attr_count       u64
///     attr names       attr_count x (u64 length + bytes)
///     data_offset      u64   absolute offset of the x section
///   columns (each section 64-byte aligned, zero padding between):
///     x                row_count x f32
///     y                row_count x f32
///     t                row_count x i64
///     attrs            attr_count x (row_count x f32)
///   footer (at footer_offset): block_count zone-map records
///     row_begin        u64
///     row_count        u64
///     min_x max_x min_y max_y                        (4 x f32)
///     min_t max_t                                    (2 x i64)
///     per-attr min,max                               (attr_count x 2 x f32)
///   trailer (last 12 bytes of the file):
///     footer_offset    u64
///     end magic        "1TSU"
///
/// Columns are whole-file contiguous (not interleaved per block): a block is
/// a *logical* row range [row_begin, row_begin + row_count), which lets an
/// mmap'ed file be served zero-copy as one PointTable view, and lets the
/// no-mmap fallback copy the whole table with one pread per column.
/// The trailer-last layout means a crashed writer can never be mistaken for
/// a complete store even before the atomic-rename guarantee kicks in.

inline constexpr char kStoreMagic[4] = {'U', 'S', 'T', '1'};
inline constexpr char kStoreEndMagic[4] = {'1', 'T', 'S', 'U'};
inline constexpr std::uint32_t kStoreVersion = 1;

/// Column sections start on cache-line/SIMD-friendly boundaries.
inline constexpr std::uint64_t kSectionAlignment = 64;

inline constexpr std::uint64_t AlignUp(std::uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

/// Serialized zone-map record size for a schema with `attr_count` columns.
inline constexpr std::uint64_t ZoneMapRecordBytes(std::uint64_t attr_count) {
  return 2 * sizeof(std::uint64_t) + 4 * sizeof(float) +
         2 * sizeof(std::int64_t) + attr_count * 2 * sizeof(float);
}

inline constexpr std::uint64_t kTrailerBytes = sizeof(std::uint64_t) + 4;

/// Sanity caps: reject absurd on-disk claims before any allocation.
inline constexpr std::uint64_t kMaxAttributes = 4096;
inline constexpr std::uint64_t kMaxRows = 1ULL << 40;

}  // namespace urbane::store

#endif  // URBANE_STORE_FORMAT_H_

#include "store/store_writer.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "raster/morton.h"
#include "store/format.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace urbane::store {

namespace {

Status SpillWrite(std::FILE* file, const void* data, std::size_t size,
                  const std::string& path) {
  if (size != 0 && std::fwrite(data, 1, size, file) != size) {
    return Status::IoError("spill write failure: " + path);
  }
  return Status::OK();
}

core::BlockZoneMap FreshZoneMap(std::uint64_t row_begin,
                                std::size_t attr_count) {
  core::BlockZoneMap zm;
  zm.row_begin = row_begin;
  zm.row_count = 0;
  zm.min_x = std::numeric_limits<float>::infinity();
  zm.max_x = -std::numeric_limits<float>::infinity();
  zm.min_y = std::numeric_limits<float>::infinity();
  zm.max_y = -std::numeric_limits<float>::infinity();
  zm.min_t = std::numeric_limits<std::int64_t>::max();
  zm.max_t = std::numeric_limits<std::int64_t>::min();
  zm.attr_min.assign(attr_count, std::numeric_limits<float>::infinity());
  zm.attr_max.assign(attr_count, -std::numeric_limits<float>::infinity());
  return zm;
}

}  // namespace

StoreWriter::~StoreWriter() { Abandon(); }

StoreWriter::StoreWriter(StoreWriter&& other) noexcept
    : path_(std::move(other.path_)),
      schema_(std::move(other.schema_)),
      options_(other.options_),
      spill_files_(std::move(other.spill_files_)),
      spill_paths_(std::move(other.spill_paths_)),
      batch_xs_(std::move(other.batch_xs_)),
      batch_ys_(std::move(other.batch_ys_)),
      batch_ts_(std::move(other.batch_ts_)),
      batch_attrs_(std::move(other.batch_attrs_)),
      zone_maps_(std::move(other.zone_maps_)),
      current_(std::move(other.current_)),
      current_open_(other.current_open_),
      rows_written_(other.rows_written_),
      finished_(other.finished_) {
  other.spill_files_.clear();
  other.spill_paths_.clear();
  other.finished_ = true;  // neutered: destructor must not unlink our spills
}

void StoreWriter::Abandon() {
  for (std::FILE* file : spill_files_) {
    if (file != nullptr) std::fclose(file);
  }
  spill_files_.clear();
  for (const std::string& path : spill_paths_) {
    ::unlink(path.c_str());
  }
  spill_paths_.clear();
}

StatusOr<StoreWriter> StoreWriter::Create(const std::string& path,
                                          data::Schema schema,
                                          const StoreWriterOptions& options) {
  if (options.block_rows == 0) {
    return Status::InvalidArgument("block_rows must be positive");
  }
  if (options.sort_batch_rows == 0) {
    return Status::InvalidArgument("sort_batch_rows must be positive");
  }
  StoreWriter writer;
  writer.path_ = path;
  writer.schema_ = std::move(schema);
  writer.options_ = options;
  const std::size_t columns = 3 + writer.schema_.attribute_count();
  writer.spill_files_.reserve(columns);
  writer.spill_paths_.reserve(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    std::string spill_path = StringPrintf("%s.col%zu.tmp", path.c_str(), c);
    std::FILE* file = std::fopen(spill_path.c_str(), "wb");
    if (file == nullptr) {
      writer.Abandon();
      return Status::IoError("cannot open spill file: " + spill_path);
    }
    writer.spill_files_.push_back(file);
    writer.spill_paths_.push_back(std::move(spill_path));
  }
  writer.batch_attrs_.resize(writer.schema_.attribute_count());
  writer.current_ = FreshZoneMap(0, writer.schema_.attribute_count());
  writer.current_open_ = true;
  return writer;
}

Status StoreWriter::Append(const data::PointTable& batch) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  if (!(batch.schema() == schema_)) {
    return Status::InvalidArgument("batch schema differs from the store's");
  }
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n; ++i) {
    batch_xs_.push_back(batch.x(i));
    batch_ys_.push_back(batch.y(i));
    batch_ts_.push_back(batch.t(i));
    for (std::size_t c = 0; c < batch_attrs_.size(); ++c) {
      batch_attrs_[c].push_back(batch.attribute(i, c));
    }
    if (batch_xs_.size() >= options_.sort_batch_rows) {
      URBANE_RETURN_IF_ERROR(FlushBatch());
    }
  }
  return Status::OK();
}

void StoreWriter::FoldRowIntoZoneMap(float x, float y, std::int64_t t,
                                     const std::vector<const float*>& attrs,
                                     std::size_t row_in_batch) {
  // NaN-safe fold: comparisons with NaN are false, so NaN values leave the
  // extents untouched (an all-NaN column keeps its inverted range, which
  // every pruning overlap test rejects — matching EvaluateFilter's
  // attribute-range kernel, which a NaN row always fails).
  if (x < current_.min_x) current_.min_x = x;
  if (x > current_.max_x) current_.max_x = x;
  if (y < current_.min_y) current_.min_y = y;
  if (y > current_.max_y) current_.max_y = y;
  if (t < current_.min_t) current_.min_t = t;
  if (t > current_.max_t) current_.max_t = t;
  for (std::size_t c = 0; c < attrs.size(); ++c) {
    const float v = attrs[c][row_in_batch];
    if (v < current_.attr_min[c]) current_.attr_min[c] = v;
    if (v > current_.attr_max[c]) current_.attr_max[c] = v;
  }
  ++current_.row_count;
  if (current_.row_count == options_.block_rows) {
    zone_maps_.push_back(current_);
    current_ = FreshZoneMap(current_.row_end(), schema_.attribute_count());
  }
}

Status StoreWriter::FlushBatch() {
  const std::size_t n = batch_xs_.size();
  if (n == 0) {
    return Status::OK();
  }
  // Morton-cluster the batch: quantize x/y to a 2^16 grid over the batch
  // bounds and stable-sort row indices by Z-order key. Stability keeps
  // same-cell rows in arrival order, so conversion is deterministic.
  float min_x = std::numeric_limits<float>::infinity();
  float max_x = -std::numeric_limits<float>::infinity();
  float min_y = std::numeric_limits<float>::infinity();
  float max_y = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (batch_xs_[i] < min_x) min_x = batch_xs_[i];
    if (batch_xs_[i] > max_x) max_x = batch_xs_[i];
    if (batch_ys_[i] < min_y) min_y = batch_ys_[i];
    if (batch_ys_[i] > max_y) max_y = batch_ys_[i];
  }
  const float span_x = max_x > min_x ? max_x - min_x : 1.0f;
  const float span_y = max_y > min_y ? max_y - min_y : 1.0f;
  constexpr float kGrid = 65535.0f;
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    float fx = (batch_xs_[i] - min_x) / span_x * kGrid;
    float fy = (batch_ys_[i] - min_y) / span_y * kGrid;
    // Non-finite coordinates sort to the last cell instead of poisoning
    // the key computation.
    if (!std::isfinite(fx)) fx = kGrid;
    if (!std::isfinite(fy)) fy = kGrid;
    const auto qx =
        static_cast<std::uint32_t>(std::clamp(fx, 0.0f, kGrid));
    const auto qy =
        static_cast<std::uint32_t>(std::clamp(fy, 0.0f, kGrid));
    keys[i] = raster::MortonPixelKey(qx, qy);
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });

  // Gather each column in Morton order and append to its spill file.
  std::vector<const float*> attr_data(batch_attrs_.size());
  {
    std::vector<float> sorted_f(n);
    for (std::size_t i = 0; i < n; ++i) sorted_f[i] = batch_xs_[order[i]];
    URBANE_RETURN_IF_ERROR(SpillWrite(spill_files_[0], sorted_f.data(),
                                      n * sizeof(float), spill_paths_[0]));
    for (std::size_t i = 0; i < n; ++i) sorted_f[i] = batch_ys_[order[i]];
    URBANE_RETURN_IF_ERROR(SpillWrite(spill_files_[1], sorted_f.data(),
                                      n * sizeof(float), spill_paths_[1]));
    std::vector<std::int64_t> sorted_t(n);
    for (std::size_t i = 0; i < n; ++i) sorted_t[i] = batch_ts_[order[i]];
    URBANE_RETURN_IF_ERROR(SpillWrite(spill_files_[2], sorted_t.data(),
                                      n * sizeof(std::int64_t),
                                      spill_paths_[2]));
    for (std::size_t c = 0; c < batch_attrs_.size(); ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        sorted_f[i] = batch_attrs_[c][order[i]];
      }
      URBANE_RETURN_IF_ERROR(SpillWrite(spill_files_[3 + c], sorted_f.data(),
                                        n * sizeof(float),
                                        spill_paths_[3 + c]));
    }
  }

  // Fold the sorted rows into the running zone maps.
  for (std::size_t c = 0; c < batch_attrs_.size(); ++c) {
    attr_data[c] = batch_attrs_[c].data();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t src = order[i];
    FoldRowIntoZoneMap(batch_xs_[src], batch_ys_[src], batch_ts_[src],
                       attr_data, src);
  }
  rows_written_ += n;

  batch_xs_.clear();
  batch_ys_.clear();
  batch_ts_.clear();
  for (auto& col : batch_attrs_) {
    col.clear();
  }
  return Status::OK();
}

StatusOr<StoreWriterStats> StoreWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  URBANE_RETURN_IF_ERROR(FlushBatch());
  if (current_open_ && current_.row_count > 0) {
    zone_maps_.push_back(current_);
  }
  current_open_ = false;

  // Flush and reopen the spill files for reading.
  for (std::size_t c = 0; c < spill_files_.size(); ++c) {
    if (std::fflush(spill_files_[c]) != 0 ||
        std::fclose(spill_files_[c]) != 0) {
      spill_files_[c] = nullptr;
      Abandon();
      return Status::IoError("spill flush failure: " + spill_paths_[c]);
    }
    spill_files_[c] = nullptr;
  }
  spill_files_.clear();

  const std::uint64_t n = rows_written_;
  const std::uint64_t attr_count = schema_.attribute_count();

  URBANE_ASSIGN_OR_RETURN(AtomicFileWriter out,
                          AtomicFileWriter::Open(path_));
  auto write_pod = [&out](const auto& value) {
    return out.Write(&value, sizeof(value));
  };
  auto pad_to = [&out](std::uint64_t target) -> Status {
    static constexpr char kZeros[kSectionAlignment] = {};
    while (out.offset() < target) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(sizeof(kZeros), target - out.offset());
      URBANE_RETURN_IF_ERROR(out.Write(kZeros, chunk));
    }
    return Status::OK();
  };

  // --- header ---
  URBANE_RETURN_IF_ERROR(out.Write(kStoreMagic, 4));
  URBANE_RETURN_IF_ERROR(write_pod(kStoreVersion));
  URBANE_RETURN_IF_ERROR(write_pod(n));
  URBANE_RETURN_IF_ERROR(write_pod(options_.block_rows));
  const std::uint64_t block_count = zone_maps_.size();
  URBANE_RETURN_IF_ERROR(write_pod(block_count));
  URBANE_RETURN_IF_ERROR(write_pod(attr_count));
  for (std::uint64_t c = 0; c < attr_count; ++c) {
    const std::string& name = schema_.attribute_name(c);
    const std::uint64_t len = name.size();
    URBANE_RETURN_IF_ERROR(write_pod(len));
    URBANE_RETURN_IF_ERROR(out.Write(name.data(), name.size()));
  }
  const std::uint64_t data_offset =
      AlignUp(out.offset() + sizeof(std::uint64_t));
  URBANE_RETURN_IF_ERROR(write_pod(data_offset));
  URBANE_RETURN_IF_ERROR(pad_to(data_offset));

  // --- column sections, copied from the spill files ---
  std::vector<char> buffer(1 << 20);
  for (std::size_t c = 0; c < spill_paths_.size(); ++c) {
    URBANE_RETURN_IF_ERROR(pad_to(AlignUp(out.offset())));
    std::FILE* in = std::fopen(spill_paths_[c].c_str(), "rb");
    if (in == nullptr) {
      return Status::IoError("cannot reopen spill file: " + spill_paths_[c]);
    }
    std::uint64_t copied = 0;
    while (true) {
      const std::size_t got = std::fread(buffer.data(), 1, buffer.size(), in);
      if (got == 0) break;
      const Status status = out.Write(buffer.data(), got);
      if (!status.ok()) {
        std::fclose(in);
        return status;
      }
      copied += got;
    }
    const bool read_error = std::ferror(in) != 0;
    std::fclose(in);
    if (read_error) {
      return Status::IoError("spill read failure: " + spill_paths_[c]);
    }
    const std::uint64_t elem = c == 2 ? sizeof(std::int64_t) : sizeof(float);
    if (copied != n * elem) {
      return Status::Internal(StringPrintf(
          "spill column %zu holds %llu bytes, expected %llu", c,
          static_cast<unsigned long long>(copied),
          static_cast<unsigned long long>(n * elem)));
    }
  }

  // --- footer: zone maps ---
  const std::uint64_t footer_offset = AlignUp(out.offset());
  URBANE_RETURN_IF_ERROR(pad_to(footer_offset));
  for (const core::BlockZoneMap& zm : zone_maps_) {
    URBANE_RETURN_IF_ERROR(write_pod(zm.row_begin));
    URBANE_RETURN_IF_ERROR(write_pod(zm.row_count));
    URBANE_RETURN_IF_ERROR(write_pod(zm.min_x));
    URBANE_RETURN_IF_ERROR(write_pod(zm.max_x));
    URBANE_RETURN_IF_ERROR(write_pod(zm.min_y));
    URBANE_RETURN_IF_ERROR(write_pod(zm.max_y));
    URBANE_RETURN_IF_ERROR(write_pod(zm.min_t));
    URBANE_RETURN_IF_ERROR(write_pod(zm.max_t));
    for (std::uint64_t c = 0; c < attr_count; ++c) {
      URBANE_RETURN_IF_ERROR(write_pod(zm.attr_min[c]));
      URBANE_RETURN_IF_ERROR(write_pod(zm.attr_max[c]));
    }
  }

  // --- trailer ---
  URBANE_RETURN_IF_ERROR(write_pod(footer_offset));
  URBANE_RETURN_IF_ERROR(out.Write(kStoreEndMagic, 4));
  const std::uint64_t file_bytes = out.offset();
  URBANE_RETURN_IF_ERROR(out.Commit());

  finished_ = true;
  Abandon();  // spill files only; the store itself is committed

  StoreWriterStats stats;
  stats.rows_written = n;
  stats.blocks_written = block_count;
  stats.file_bytes = file_bytes;
  return stats;
}

StatusOr<StoreWriterStats> WritePointStore(const data::PointTable& table,
                                           const std::string& path,
                                           const StoreWriterOptions& options) {
  URBANE_ASSIGN_OR_RETURN(StoreWriter writer,
                          StoreWriter::Create(path, table.schema(), options));
  URBANE_RETURN_IF_ERROR(writer.Append(table));
  return writer.Finish();
}

}  // namespace urbane::store

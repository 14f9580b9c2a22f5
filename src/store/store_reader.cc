#include "store/store_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "store/format.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace urbane::store {

namespace {

std::string PrintableMagic(const char magic[4]) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    const unsigned char c = static_cast<unsigned char>(magic[i]);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      out += StringPrintf("\\x%02X", c);
    }
  }
  return out;
}

/// Bounds-checked sequential parser over the header region. Every read is
/// validated against the real file size first, so a truncated or lying file
/// fails with the exact offset instead of reading garbage.
class HeaderCursor {
 public:
  HeaderCursor(int fd, std::uint64_t file_size, const std::string& path)
      : fd_(fd), file_size_(file_size), path_(path) {}

  std::uint64_t offset() const { return offset_; }
  std::uint64_t Remaining() const {
    return file_size_ > offset_ ? file_size_ - offset_ : 0;
  }

  Status Bytes(void* dst, std::uint64_t n, const char* what) {
    if (n > Remaining()) {
      return Status::IoError(StringPrintf(
          "truncated store %s: need %llu bytes for %s at offset %llu, "
          "file is %llu bytes",
          path_.c_str(), static_cast<unsigned long long>(n), what,
          static_cast<unsigned long long>(offset_),
          static_cast<unsigned long long>(file_size_)));
    }
    std::uint64_t done = 0;
    while (done < n) {
      const ssize_t got =
          ::pread(fd_, static_cast<char*>(dst) + done, n - done,
                  static_cast<off_t>(offset_ + done));
      if (got <= 0) {
        return Status::IoError(StringPrintf(
            "read failure in %s at offset %llu (%s)", path_.c_str(),
            static_cast<unsigned long long>(offset_ + done), what));
      }
      done += static_cast<std::uint64_t>(got);
    }
    offset_ += n;
    return Status::OK();
  }

  template <typename T>
  Status Pod(T* value, const char* what) {
    return Bytes(value, sizeof(T), what);
  }

  /// Validates an on-disk element count against the bytes actually left.
  Status Count(std::uint64_t n, std::uint64_t elem_size, const char* what) {
    if (elem_size == 0 || n > Remaining() / elem_size) {
      return Status::IoError(StringPrintf(
          "corrupt %s count %llu at offset %llu of %s: only %llu bytes "
          "remain",
          what, static_cast<unsigned long long>(n),
          static_cast<unsigned long long>(offset_), path_.c_str(),
          static_cast<unsigned long long>(Remaining())));
    }
    return Status::OK();
  }

  void Seek(std::uint64_t offset) { offset_ = offset; }

 private:
  int fd_;
  std::uint64_t file_size_;
  const std::string& path_;
  std::uint64_t offset_ = 0;
};

}  // namespace

StoreReader::~StoreReader() {
  if (mapped_ != nullptr) {
    ::munmap(mapped_, static_cast<std::size_t>(file_size_));
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

StoreReader::StoreReader(StoreReader&& other) noexcept
    : path_(std::move(other.path_)),
      schema_(std::move(other.schema_)),
      zone_maps_(std::move(other.zone_maps_)),
      row_count_(other.row_count_),
      block_rows_(other.block_rows_),
      file_size_(other.file_size_),
      x_offset_(other.x_offset_),
      y_offset_(other.y_offset_),
      t_offset_(other.t_offset_),
      attr_offsets_(std::move(other.attr_offsets_)),
      fd_(other.fd_),
      mapped_(other.mapped_) {
  other.fd_ = -1;
  other.mapped_ = nullptr;
}

StatusOr<StoreReader> StoreReader::Open(const std::string& path,
                                        const StoreReaderOptions& options) {
  URBANE_ASSIGN_OR_RETURN(std::uint64_t file_size, FileSizeBytes(path));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open store file: " + path);
  }
  StoreReader reader;
  reader.path_ = path;
  reader.fd_ = fd;
  reader.file_size_ = file_size;

  HeaderCursor cur(fd, file_size, path);

  // --- header ---
  char magic[4];
  URBANE_RETURN_IF_ERROR(cur.Bytes(magic, 4, "magic"));
  if (std::memcmp(magic, kStoreMagic, 4) != 0) {
    return Status::IoError(StringPrintf(
        "bad magic in %s: found '%s', expected '%s' (UST1 point store)",
        path.c_str(), PrintableMagic(magic).c_str(),
        PrintableMagic(kStoreMagic).c_str()));
  }
  std::uint32_t version = 0;
  URBANE_RETURN_IF_ERROR(cur.Pod(&version, "version"));
  if (version != kStoreVersion) {
    return Status::IoError(StringPrintf(
        "unsupported store version %u in %s, expected %u", version,
        path.c_str(), kStoreVersion));
  }
  std::uint64_t row_count = 0;
  std::uint64_t block_rows = 0;
  std::uint64_t block_count = 0;
  std::uint64_t attr_count = 0;
  URBANE_RETURN_IF_ERROR(cur.Pod(&row_count, "row count"));
  URBANE_RETURN_IF_ERROR(cur.Pod(&block_rows, "block rows"));
  URBANE_RETURN_IF_ERROR(cur.Pod(&block_count, "block count"));
  URBANE_RETURN_IF_ERROR(cur.Pod(&attr_count, "attribute count"));
  if (row_count > kMaxRows) {
    return Status::IoError(StringPrintf(
        "corrupt row count %llu in %s (cap %llu)",
        static_cast<unsigned long long>(row_count), path.c_str(),
        static_cast<unsigned long long>(kMaxRows)));
  }
  if (attr_count > kMaxAttributes) {
    return Status::IoError(StringPrintf(
        "corrupt attribute count %llu in %s (cap %llu)",
        static_cast<unsigned long long>(attr_count), path.c_str(),
        static_cast<unsigned long long>(kMaxAttributes)));
  }
  if (row_count > 0 && block_rows == 0) {
    return Status::IoError(StringPrintf(
        "corrupt store %s: %llu rows but block_rows is zero", path.c_str(),
        static_cast<unsigned long long>(row_count)));
  }
  // The writer always emits exactly ceil(rows / block_rows) blocks; checking
  // the count here (before any reserve and before the footer-size equation,
  // whose multiply could otherwise wrap) keeps a flipped block_count from
  // driving allocations.
  const std::uint64_t expected_blocks =
      row_count == 0 ? 0 : (row_count + block_rows - 1) / block_rows;
  if (block_count != expected_blocks) {
    return Status::IoError(StringPrintf(
        "corrupt block count %llu in %s: %llu rows at %llu rows/block "
        "require %llu blocks",
        static_cast<unsigned long long>(block_count), path.c_str(),
        static_cast<unsigned long long>(row_count),
        static_cast<unsigned long long>(block_rows),
        static_cast<unsigned long long>(expected_blocks)));
  }
  std::vector<std::string> names;
  names.reserve(attr_count);
  for (std::uint64_t c = 0; c < attr_count; ++c) {
    std::uint64_t len = 0;
    URBANE_RETURN_IF_ERROR(cur.Pod(&len, "attribute name length"));
    URBANE_RETURN_IF_ERROR(cur.Count(len, 1, "attribute name"));
    std::string name(len, '\0');
    URBANE_RETURN_IF_ERROR(cur.Bytes(name.data(), len, "attribute name"));
    names.push_back(std::move(name));
  }
  std::uint64_t data_offset = 0;
  URBANE_RETURN_IF_ERROR(cur.Pod(&data_offset, "data offset"));
  const std::uint64_t expected_data_offset = AlignUp(cur.offset());
  if (data_offset != expected_data_offset) {
    return Status::IoError(StringPrintf(
        "corrupt data offset %llu in %s, expected %llu",
        static_cast<unsigned long long>(data_offset), path.c_str(),
        static_cast<unsigned long long>(expected_data_offset)));
  }

  // --- derive and bounds-check the section layout ---
  const std::uint64_t n = row_count;
  reader.x_offset_ = data_offset;
  reader.y_offset_ = AlignUp(reader.x_offset_ + n * sizeof(float));
  reader.t_offset_ = AlignUp(reader.y_offset_ + n * sizeof(float));
  std::uint64_t end = reader.t_offset_ + n * sizeof(std::int64_t);
  reader.attr_offsets_.reserve(attr_count);
  for (std::uint64_t c = 0; c < attr_count; ++c) {
    reader.attr_offsets_.push_back(AlignUp(end));
    end = reader.attr_offsets_.back() + n * sizeof(float);
  }
  const std::uint64_t expected_footer = AlignUp(end);
  const std::uint64_t footer_bytes = block_count * ZoneMapRecordBytes(attr_count);
  if (file_size < kTrailerBytes ||
      expected_footer + footer_bytes + kTrailerBytes != file_size) {
    return Status::IoError(StringPrintf(
        "store %s is %llu bytes, but %llu rows x %llu attrs + %llu "
        "zone maps require %llu",
        path.c_str(), static_cast<unsigned long long>(file_size),
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(attr_count),
        static_cast<unsigned long long>(block_count),
        static_cast<unsigned long long>(expected_footer + footer_bytes +
                                        kTrailerBytes)));
  }

  // --- trailer ---
  cur.Seek(file_size - kTrailerBytes);
  std::uint64_t footer_offset = 0;
  URBANE_RETURN_IF_ERROR(cur.Pod(&footer_offset, "footer offset"));
  char end_magic[4];
  URBANE_RETURN_IF_ERROR(cur.Bytes(end_magic, 4, "end magic"));
  if (std::memcmp(end_magic, kStoreEndMagic, 4) != 0) {
    return Status::IoError(StringPrintf(
        "bad end magic in %s: found '%s', expected '%s' — file is "
        "truncated or was not finalized",
        path.c_str(), PrintableMagic(end_magic).c_str(),
        PrintableMagic(kStoreEndMagic).c_str()));
  }
  if (footer_offset != expected_footer) {
    return Status::IoError(StringPrintf(
        "corrupt footer offset %llu in %s, expected %llu",
        static_cast<unsigned long long>(footer_offset), path.c_str(),
        static_cast<unsigned long long>(expected_footer)));
  }

  // --- footer: zone maps ---
  cur.Seek(footer_offset);
  std::vector<core::BlockZoneMap> blocks;
  blocks.reserve(block_count);
  for (std::uint64_t b = 0; b < block_count; ++b) {
    core::BlockZoneMap zm;
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.row_begin, "zone map row begin"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.row_count, "zone map row count"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.min_x, "zone map min x"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.max_x, "zone map max x"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.min_y, "zone map min y"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.max_y, "zone map max y"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.min_t, "zone map min t"));
    URBANE_RETURN_IF_ERROR(cur.Pod(&zm.max_t, "zone map max t"));
    zm.attr_min.resize(attr_count);
    zm.attr_max.resize(attr_count);
    for (std::uint64_t c = 0; c < attr_count; ++c) {
      URBANE_RETURN_IF_ERROR(cur.Pod(&zm.attr_min[c], "zone map attr min"));
      URBANE_RETURN_IF_ERROR(cur.Pod(&zm.attr_max[c], "zone map attr max"));
    }
    blocks.push_back(std::move(zm));
  }
  auto index_or = core::ZoneMapIndex::Create(std::move(blocks), attr_count);
  if (!index_or.ok()) {
    return Status::IoError(StringPrintf(
        "corrupt zone maps in %s: %s", path.c_str(),
        index_or.status().message().c_str()));
  }
  reader.zone_maps_ = std::move(index_or).value();
  if (reader.zone_maps_.total_rows() != row_count) {
    return Status::IoError(StringPrintf(
        "zone maps in %s cover %llu rows but the header claims %llu",
        path.c_str(),
        static_cast<unsigned long long>(reader.zone_maps_.total_rows()),
        static_cast<unsigned long long>(row_count)));
  }

  URBANE_ASSIGN_OR_RETURN(data::Schema schema,
                          data::Schema::Create(std::move(names)));
  reader.schema_ = std::move(schema);
  reader.row_count_ = row_count;
  reader.block_rows_ = block_rows;

  if (options.use_mmap && file_size > 0) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(file_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      reader.mapped_ = map;
    }
    // mmap failure is not fatal: Materialize still works via pread.
  }
  return reader;
}

Status StoreReader::ReadAt(std::uint64_t offset, void* dst,
                           std::uint64_t bytes, const char* what) const {
  if (offset + bytes > file_size_) {
    return Status::IoError(StringPrintf(
        "read past end of %s: %llu bytes at offset %llu (%s)",
        path_.c_str(), static_cast<unsigned long long>(bytes),
        static_cast<unsigned long long>(offset), what));
  }
  if (mapped_ != nullptr) {
    std::memcpy(dst, static_cast<const char*>(mapped_) + offset, bytes);
    return Status::OK();
  }
  std::uint64_t done = 0;
  while (done < bytes) {
    const ssize_t got = ::pread(fd_, static_cast<char*>(dst) + done,
                                bytes - done,
                                static_cast<off_t>(offset + done));
    if (got <= 0) {
      return Status::IoError(StringPrintf(
          "read failure in %s at offset %llu (%s)", path_.c_str(),
          static_cast<unsigned long long>(offset + done), what));
    }
    done += static_cast<std::uint64_t>(got);
  }
  return Status::OK();
}

StatusOr<data::PointTable> StoreReader::MappedTable() const {
  if (mapped_ == nullptr && row_count_ > 0) {
    return Status::IoError("store " + path_ +
                           " is not memory-mapped; use Materialize");
  }
  const char* base = static_cast<const char*>(mapped_);
  std::vector<const float*> attrs;
  attrs.reserve(attr_offsets_.size());
  for (const std::uint64_t off : attr_offsets_) {
    attrs.push_back(row_count_ > 0
                        ? reinterpret_cast<const float*>(base + off)
                        : nullptr);
  }
  URBANE_ASSIGN_OR_RETURN(
      data::PointTable table,
      data::PointTable::View(
          schema_,
          row_count_ > 0 ? reinterpret_cast<const float*>(base + x_offset_)
                         : nullptr,
          row_count_ > 0 ? reinterpret_cast<const float*>(base + y_offset_)
                         : nullptr,
          row_count_ > 0
              ? reinterpret_cast<const std::int64_t*>(base + t_offset_)
              : nullptr,
          std::move(attrs), static_cast<std::size_t>(row_count_)));
  table.SetCachedExtents(zone_maps_.Bounds(), zone_maps_.TimeRange());
  return table;
}

StatusOr<data::PointTable> StoreReader::Materialize() const {
  const std::size_t n = static_cast<std::size_t>(row_count_);
  std::vector<float> xs(n);
  std::vector<float> ys(n);
  std::vector<std::int64_t> ts(n);
  URBANE_RETURN_IF_ERROR(
      ReadAt(x_offset_, xs.data(), n * sizeof(float), "x column"));
  URBANE_RETURN_IF_ERROR(
      ReadAt(y_offset_, ys.data(), n * sizeof(float), "y column"));
  URBANE_RETURN_IF_ERROR(
      ReadAt(t_offset_, ts.data(), n * sizeof(std::int64_t), "t column"));
  data::PointTable table{schema_};
  table.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    table.AppendXyt(xs[i], ys[i], ts[i]);
  }
  for (std::size_t c = 0; c < attr_offsets_.size(); ++c) {
    std::vector<float>& col = table.mutable_attribute_column(c);
    col.resize(n);
    URBANE_RETURN_IF_ERROR(ReadAt(attr_offsets_[c], col.data(),
                                  n * sizeof(float), "attribute column"));
  }
  table.SetCachedExtents(zone_maps_.Bounds(), zone_maps_.TimeRange());
  return table;
}

}  // namespace urbane::store

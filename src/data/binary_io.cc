#include "data/binary_io.h"

#include <cctype>
#include <cstring>
#include <fstream>

#include "util/file_util.h"
#include "util/string_util.h"

namespace urbane::data {

namespace {

constexpr char kRegionMagic[4] = {'U', 'R', 'G', '1'};

std::string PrintableMagic(const char magic[4]) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    const unsigned char c = static_cast<unsigned char>(magic[i]);
    if (std::isprint(c)) {
      out.push_back(static_cast<char>(c));
    } else {
      out += StringPrintf("\\x%02x", c);
    }
  }
  return out;
}

/// Buffered writer over the crash-safe AtomicFileWriter: bytes land in
/// `<path>.tmp` and only an error-free Finish() renames onto the final
/// path, so interrupted saves never leave a half-written snapshot behind.
class Writer {
 public:
  static StatusOr<Writer> Open(const std::string& path) {
    URBANE_ASSIGN_OR_RETURN(AtomicFileWriter file,
                            AtomicFileWriter::Open(path));
    Writer w;
    w.file_ = std::move(file);
    return w;
  }

  void Bytes(const void* data, std::size_t size) {
    if (!status_.ok()) return;
    status_ = file_.Write(data, size);
  }
  template <typename T>
  void Pod(const T& value) {
    Bytes(&value, sizeof(T));
  }
  void U64(std::uint64_t v) { Pod(v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  Status Finish() {
    URBANE_RETURN_IF_ERROR(status_);
    return file_.Commit();
  }

 private:
  Writer() = default;

  AtomicFileWriter file_;
  Status status_;
};

/// Hardened reader: every length field is validated against the bytes that
/// actually remain in the file *before* any allocation or read, so a
/// truncated or corrupted snapshot yields a clean IoError (with the byte
/// offset of the offending field) instead of a multi-GB allocation or a
/// silent short read.
class Reader {
 public:
  explicit Reader(const std::string& path)
      : file_(path, std::ios::binary), path_(path) {
    if (file_) {
      file_.seekg(0, std::ios::end);
      const std::streamoff size = file_.tellg();
      file_.seekg(0, std::ios::beg);
      if (size >= 0 && file_) {
        file_size_ = static_cast<std::uint64_t>(size);
        sized_ = true;
      }
    }
  }

  bool ok() const { return sized_ && static_cast<bool>(file_); }

  std::uint64_t offset() const { return offset_; }
  std::uint64_t Remaining() const {
    return offset_ <= file_size_ ? file_size_ - offset_ : 0;
  }

  Status Bytes(void* data, std::size_t size) {
    if (size > Remaining()) {
      return Status::IoError(StringPrintf(
          "truncated file %s: need %zu bytes at offset %llu, %llu remain",
          path_.c_str(), size, static_cast<unsigned long long>(offset_),
          static_cast<unsigned long long>(Remaining())));
    }
    file_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!file_) {
      return Status::IoError(StringPrintf(
          "read failure in %s at offset %llu", path_.c_str(),
          static_cast<unsigned long long>(offset_)));
    }
    offset_ += size;
    return Status::OK();
  }
  template <typename T>
  Status Pod(T& value) {
    return Bytes(&value, sizeof(T));
  }
  StatusOr<std::uint64_t> U64() {
    std::uint64_t v = 0;
    URBANE_RETURN_IF_ERROR(Pod(v));
    return v;
  }

  /// A count of `elem_size`-byte elements read at the current offset; the
  /// claimed payload must fit in the remaining file bytes.
  StatusOr<std::uint64_t> Count(std::size_t elem_size, const char* what) {
    const std::uint64_t at = offset_;
    URBANE_ASSIGN_OR_RETURN(std::uint64_t n, U64());
    if (elem_size != 0 && n > Remaining() / elem_size) {
      return Status::IoError(StringPrintf(
          "corrupt %s count %llu at offset %llu of %s: %llu * %zu bytes "
          "exceed the %llu remaining",
          what, static_cast<unsigned long long>(n),
          static_cast<unsigned long long>(at), path_.c_str(),
          static_cast<unsigned long long>(n), elem_size,
          static_cast<unsigned long long>(Remaining())));
    }
    return n;
  }

  StatusOr<std::string> Str() {
    URBANE_ASSIGN_OR_RETURN(std::uint64_t size, Count(1, "string length"));
    std::string s(size, '\0');
    URBANE_RETURN_IF_ERROR(Bytes(s.data(), size));
    return s;
  }
  const std::string& path() const { return path_; }

 private:
  std::ifstream file_;
  std::string path_;
  std::uint64_t file_size_ = 0;
  std::uint64_t offset_ = 0;
  bool sized_ = false;
};

/// Distinct, actionable magic/version diagnostics: a mismatch names both
/// the found and the expected magic so a format upgrade (or handing a UST1
/// point store to the region reader) fails loudly instead of as a generic
/// read error downstream.
Status CheckMagic(Reader& reader, const char expected[4],
                  const std::string& what) {
  char magic[4];
  URBANE_RETURN_IF_ERROR(reader.Bytes(magic, 4));
  if (std::memcmp(magic, expected, 4) != 0) {
    return Status::IoError("bad magic in " + reader.path() + ": found '" +
                           PrintableMagic(magic) + "', expected '" +
                           PrintableMagic(expected) + "' (" + what +
                           " snapshot)");
  }
  return Status::OK();
}

void WriteRing(Writer& w, const geometry::Ring& ring) {
  w.U64(ring.size());
  for (const geometry::Vec2& p : ring) {
    w.Pod(p.x);
    w.Pod(p.y);
  }
}

StatusOr<geometry::Ring> ReadRing(Reader& r) {
  URBANE_ASSIGN_OR_RETURN(std::uint64_t n,
                          r.Count(2 * sizeof(double), "ring size"));
  geometry::Ring ring(n);
  for (auto& p : ring) {
    URBANE_RETURN_IF_ERROR(r.Pod(p.x));
    URBANE_RETURN_IF_ERROR(r.Pod(p.y));
  }
  return ring;
}

}  // namespace

Status WriteRegionSetBinary(const RegionSet& regions,
                            const std::string& path) {
  URBANE_ASSIGN_OR_RETURN(Writer w, Writer::Open(path));
  w.Bytes(kRegionMagic, 4);
  w.U64(regions.size());
  for (const Region& region : regions.regions()) {
    w.Pod(region.id);
    w.Str(region.name);
    w.U64(region.geometry.parts().size());
    for (const geometry::Polygon& part : region.geometry.parts()) {
      WriteRing(w, part.outer());
      w.U64(part.holes().size());
      for (const geometry::Ring& hole : part.holes()) {
        WriteRing(w, hole);
      }
    }
  }
  return w.Finish();
}

StatusOr<RegionSet> ReadRegionSetBinary(const std::string& path) {
  Reader r(path);
  if (!r.ok()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  URBANE_RETURN_IF_ERROR(CheckMagic(r, kRegionMagic, "region-set"));
  // A serialized region is at least id + name length + part count bytes.
  URBANE_ASSIGN_OR_RETURN(std::uint64_t count,
                          r.Count(/*elem_size=*/20, "region"));
  RegionSet regions;
  for (std::uint64_t i = 0; i < count; ++i) {
    Region region;
    URBANE_RETURN_IF_ERROR(r.Pod(region.id));
    URBANE_ASSIGN_OR_RETURN(region.name, r.Str());
    // A part carries at least an outer-ring size and a hole count.
    URBANE_ASSIGN_OR_RETURN(std::uint64_t parts, r.Count(16, "part"));
    for (std::uint64_t p = 0; p < parts; ++p) {
      URBANE_ASSIGN_OR_RETURN(geometry::Ring outer, ReadRing(r));
      geometry::Polygon polygon(std::move(outer));
      URBANE_ASSIGN_OR_RETURN(std::uint64_t holes, r.Count(8, "hole"));
      for (std::uint64_t h = 0; h < holes; ++h) {
        URBANE_ASSIGN_OR_RETURN(geometry::Ring hole, ReadRing(r));
        polygon.add_hole(std::move(hole));
      }
      region.geometry.add_part(std::move(polygon));
    }
    URBANE_RETURN_IF_ERROR(regions.Add(std::move(region)));
  }
  return regions;
}

}  // namespace urbane::data

#ifndef URBANE_UTIL_CSV_H_
#define URBANE_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace urbane {

/// A parsed CSV document: a header row plus data rows, all as strings.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of `name` in the header, or -1.
  int ColumnIndex(const std::string& name) const;
};

/// RFC-4180-style parsing: fields separated by `delimiter`, optional double
/// quotes with `""` escapes, \n or \r\n row terminators. The first row is
/// the header. Rows whose field count differs from the header's are an
/// error (ragged files usually indicate corruption).
StatusOr<CsvDocument> ParseCsv(const std::string& content,
                               char delimiter = ',');

/// Serializes (quoting fields that contain the delimiter, quotes or
/// newlines).
std::string WriteCsv(const CsvDocument& doc, char delimiter = ',');

/// Writes to a file, creating/truncating it.
Status WriteCsvFile(const CsvDocument& doc, const std::string& path,
                    char delimiter = ',');

/// Reads an entire file into a string (shared helper, also used by the
/// GeoJSON loader).
StatusOr<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file, creating/truncating it.
Status WriteStringToFile(const std::string& content, const std::string& path);

}  // namespace urbane

#endif  // URBANE_UTIL_CSV_H_

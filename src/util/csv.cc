#include "util/csv.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace urbane {

int CsvDocument::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

namespace {

// Parses one logical CSV record starting at `pos`; advances `pos` past the
// record terminator. Quoted fields may contain delimiters and newlines.
StatusOr<std::vector<std::string>> ParseRecord(const std::string& content,
                                               std::size_t& pos,
                                               char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  const std::size_t n = content.size();
  while (pos < n) {
    const char c = content[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < n && content[pos + 1] == '"') {
          field.push_back('"');
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        field.push_back(c);
        ++pos;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        return Status::InvalidArgument(
            "quote appearing mid-field at byte " + std::to_string(pos));
      }
      in_quotes = true;
      ++pos;
    } else if (c == delimiter) {
      fields.push_back(std::move(field));
      field.clear();
      ++pos;
    } else if (c == '\n' || c == '\r') {
      ++pos;
      if (c == '\r' && pos < n && content[pos] == '\n') {
        ++pos;
      }
      fields.push_back(std::move(field));
      return fields;
    } else {
      field.push_back(c);
      ++pos;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field at end of input");
  }
  fields.push_back(std::move(field));
  return fields;
}

bool NeedsQuoting(const std::string& field, char delimiter) {
  for (const char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      return true;
    }
  }
  return false;
}

void AppendField(std::string& out, const std::string& field, char delimiter) {
  if (!NeedsQuoting(field, delimiter)) {
    out += field;
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

StatusOr<CsvDocument> ParseCsv(const std::string& content, char delimiter) {
  CsvDocument doc;
  std::size_t pos = 0;
  if (content.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }
  URBANE_ASSIGN_OR_RETURN(doc.header, ParseRecord(content, pos, delimiter));
  while (pos < content.size()) {
    URBANE_ASSIGN_OR_RETURN(std::vector<std::string> row,
                            ParseRecord(content, pos, delimiter));
    // A trailing newline manifests as a single empty field; skip it.
    if (row.size() == 1 && row[0].empty() && pos >= content.size()) {
      break;
    }
    if (row.size() != doc.header.size()) {
      return Status::InvalidArgument(StringPrintf(
          "row %zu has %zu fields, header has %zu", doc.rows.size() + 1,
          row.size(), doc.header.size()));
    }
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

std::string WriteCsv(const CsvDocument& doc, char delimiter) {
  std::string out;
  for (std::size_t i = 0; i < doc.header.size(); ++i) {
    if (i > 0) out.push_back(delimiter);
    AppendField(out, doc.header[i], delimiter);
  }
  out.push_back('\n');
  for (const auto& row : doc.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      AppendField(out, row[i], delimiter);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const CsvDocument& doc, const std::string& path,
                    char delimiter) {
  return WriteStringToFile(WriteCsv(doc, delimiter), path);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IoError("cannot open file for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) {
    return Status::IoError("read failure on file: " + path);
  }
  return buffer.str();
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  file.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!file) {
    return Status::IoError("write failure on file: " + path);
  }
  return Status::OK();
}

}  // namespace urbane

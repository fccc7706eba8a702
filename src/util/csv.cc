#include "src/util/csv.h"

namespace odutil {

CsvWriter::CsvWriter(const std::string& path) { file_ = std::fopen(path.c_str(), "w"); }

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

std::string CsvWriter::Escape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  if (file_ == nullptr) {
    return;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    std::fputs(Escape(cells[i]).c_str(), file_);
    std::fputc(i + 1 < cells.size() ? ',' : '\n', file_);
  }
}

void CsvWriter::WriteNumericRow(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    cells.emplace_back(buf);
  }
  WriteRow(cells);
}

}  // namespace odutil

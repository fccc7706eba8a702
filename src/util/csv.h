// Minimal CSV writer.
//
// The timeline benches (Figure 19) can dump their series for external
// plotting.  Fields containing commas, quotes, or newlines are quoted per
// RFC 4180.

#ifndef SRC_UTIL_CSV_H_
#define SRC_UTIL_CSV_H_

#include <cstdio>
#include <string>
#include <vector>

namespace odutil {

class CsvWriter {
 public:
  // Opens `path` for writing; Check ok() before use.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool ok() const { return file_ != nullptr; }

  void WriteRow(const std::vector<std::string>& cells);

  // Convenience for numeric rows.
  void WriteNumericRow(const std::vector<double>& values, int precision = 6);


  // Escapes one field per RFC 4180 (exposed for testing).
  static std::string Escape(const std::string& field);

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace odutil

#endif  // SRC_UTIL_CSV_H_

// Minimal CSV reading/writing for trace files and benchmark output.
//
// The dialect is deliberately simple (comma separator, no quoting) because
// every field we serialize is numeric or a bare identifier; the writer
// rejects fields that would need quoting rather than emitting ambiguous
// output.
#ifndef ADPAD_SRC_COMMON_CSV_H_
#define ADPAD_SRC_COMMON_CSV_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pad {

// Writes rows to an ostream owned by the caller.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  // Writes a header or data row. Fields must not contain ',' '\n' or '"'.
  void WriteRow(const std::vector<std::string>& fields);

  // Convenience: formats doubles with full round-trip precision.
  static std::string Field(double value);
  static std::string Field(int64_t value);
  static std::string Field(int value) { return Field(static_cast<int64_t>(value)); }

 private:
  std::ostream& out_;
};

// Parsed CSV contents: a header row plus data rows of equal arity.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  // Index of a header column; aborts if missing.
  int ColumnIndex(std::string_view name) const;
};

// Parses CSV text. Empty lines and lines starting with '#' are skipped.
// Aborts on ragged rows (every data row must match the header's arity).
CsvTable ParseCsv(std::string_view text);

// Non-aborting variant for externally supplied files: a ragged row (e.g. a
// truncated last line) returns nullopt with a diagnostic in *error instead
// of taking the process down.
std::optional<CsvTable> TryParseCsv(std::string_view text, std::string* error);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_CSV_H_

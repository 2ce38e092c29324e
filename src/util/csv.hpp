// Minimal RFC-4180-ish CSV reader/writer used by the GTFS-subset loader.
// Handles quoted fields, embedded commas/quotes/newlines, and CRLF input.
//
// Parsing is bounded: CsvLimits caps the field size, column count and row
// count BEFORE the corresponding storage grows, so a corrupt or adversarial
// file fails with a diagnostic instead of an unbounded allocation — the
// same discipline as the snapshot loader (timetable/snapshot.hpp).
#pragma once

#include <cstddef>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace pconn {

/// Allocation guards for CsvTable::parse / read_csv_record. The defaults
/// comfortably hold the largest GTFS feeds we model (stop_times.txt of a
/// continental network is ~10M rows) while keeping a lying file from
/// resizing anything to gigabytes.
struct CsvLimits {
  std::size_t max_field_bytes = std::size_t{1} << 20;  // 1 MiB per field
  std::size_t max_columns = 4096;
  std::size_t max_rows = std::size_t{1} << 25;  // 32M records
};

/// Splits one CSV record; reads additional physical lines when a quoted field
/// spans a newline. Returns std::nullopt at end of stream. Throws
/// std::runtime_error when a field or the column count exceeds `lim`.
std::optional<std::vector<std::string>> read_csv_record(
    std::istream& in, const CsvLimits& lim = {});

/// Escapes and writes one record.
void write_csv_record(std::ostream& out, const std::vector<std::string>& rec);

/// Header-indexed CSV file: rows accessed by column name.
class CsvTable {
 public:
  /// Parses the whole stream. Throws std::runtime_error on ragged rows and
  /// on any `lim` violation (oversized field, too many columns or rows).
  static CsvTable parse(std::istream& in, const CsvLimits& lim = {});

  std::size_t num_rows() const { return rows_.size(); }
  bool has_column(const std::string& name) const;
  /// Cell by row index and column name; throws if the column is unknown.
  const std::string& cell(std::size_t row, const std::string& col) const;
  /// Cell or a default when the column is absent or the cell is empty.
  std::string cell_or(std::size_t row, const std::string& col,
                      const std::string& def) const;

 private:
  std::map<std::string, std::size_t> col_index_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pconn

#ifndef FLOWERCDN_UTIL_TABLE_PRINTER_H_
#define FLOWERCDN_UTIL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace flowercdn {

/// Right-pads columns and prints an ASCII table — used by the command-line
/// tools and benchmark harnesses to print their results readably.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Adds a data row; missing cells render empty, extra cells are kept.
  void AddRow(std::vector<std::string> row);

  /// Renders the table with a header separator.
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` decimal places.
std::string FormatDouble(double v, int digits);

}  // namespace flowercdn

#endif  // FLOWERCDN_UTIL_TABLE_PRINTER_H_

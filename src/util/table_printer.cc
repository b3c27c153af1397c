#include "util/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace flowercdn {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<size_t> width(cols, 0);
  auto measure = [&](const std::vector<std::string>& r) {
    for (size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  };
  measure(header_);
  for (const auto& r : rows_) measure(r);

  auto emit = [&](const std::vector<std::string>& r) {
    for (size_t c = 0; c < cols; ++c) {
      const std::string cell = c < r.size() ? r[c] : "";
      os << cell << std::string(width[c] - cell.size(), ' ');
      if (c + 1 < cols) os << "  ";
    }
    os << "\n";
  };
  emit(header_);
  size_t total = 0;
  for (size_t c = 0; c < cols; ++c) total += width[c] + (c + 1 < cols ? 2 : 0);
  os << std::string(total, '-') << "\n";
  for (const auto& r : rows_) emit(r);
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace flowercdn

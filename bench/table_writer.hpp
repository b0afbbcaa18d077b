// Aligned-console and CSV table output for the benchmark harnesses.
// Each figure bench prints the same series the paper plots, as a
// human-readable aligned table plus an optional machine-readable CSV file.
#pragma once

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace psc::bench {

/// One table cell: string, integer, or double (formatted with precision).
using Cell = std::variant<std::string, long long, double>;

/// Collects rows and renders them column-aligned to a stream and/or as CSV.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers, int precision = 6)
      : headers_(std::move(headers)), precision_(precision) {
    if (headers_.empty()) throw std::invalid_argument("TableWriter: no headers");
  }

  TableWriter& add_row(std::vector<Cell> cells) {
    if (cells.size() != headers_.size()) {
      throw std::invalid_argument("TableWriter: row width mismatch");
    }
    std::vector<std::string> row;
    row.reserve(cells.size());
    for (const auto& cell : cells) row.push_back(format(cell));
    rows_.push_back(std::move(row));
    return *this;
  }

  /// Renders an aligned table (with a header rule) to `out`.
  void print(std::ostream& out) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto emit = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        out << std::setw(static_cast<int>(widths[c])) << row[c]
            << (c + 1 == row.size() ? "\n" : "  ");
      }
    };
    emit(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths) total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto& row : rows_) emit(row);
  }

  /// Writes RFC-4180-ish CSV (values with commas/quotes are quoted).
  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("TableWriter: cannot open " + path);
    write_csv(out);
  }
  void write_csv(std::ostream& out) const {
    auto emit = [&](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        out << csv_escape(row[c]) << (c + 1 == row.size() ? "\n" : ",");
      }
    };
    emit(headers_);
    for (const auto& row : rows_) emit(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int precision_;

  [[nodiscard]] std::string format(const Cell& cell) const {
    if (const auto* s = std::get_if<std::string>(&cell)) return *s;
    if (const auto* i = std::get_if<long long>(&cell)) return std::to_string(*i);
    std::ostringstream os;
    os << std::setprecision(precision_) << std::get<double>(cell);
    return os.str();
  }

  static std::string csv_escape(const std::string& value) {
    if (value.find_first_of(",\"\n") == std::string::npos) return value;
    std::string escaped = "\"";
    for (char ch : value) {
      if (ch == '"') escaped += '"';
      escaped += ch;
    }
    escaped += '"';
    return escaped;
  }
};

/// Prints a section banner (figure id + description) used by every bench.
inline void print_banner(std::ostream& out, std::string_view title,
                         std::string_view subtitle = {}) {
  out << "\n== " << title << " ==\n";
  if (!subtitle.empty()) out << subtitle << "\n";
  out << "\n";
}

}  // namespace psc::bench

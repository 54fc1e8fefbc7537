// Minimal fixed-width table printer used by the bench harness to emit the
// paper-style result tables (one per experiment) on stdout.
#pragma once

#include <string>
#include <vector>

namespace ssps {

/// Accumulates rows of strings and prints them with aligned columns.
///
/// Used by the bench binaries to print readable reproductions of the
/// paper's per-claim series next to the JSON results they write.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends one row; the column count must match the header.
  void add_row(std::vector<std::string> row);

  /// Renders the table with a title banner to stdout.
  void print(const std::string& title) const;

  /// Formats a double with the given precision (helper for row building).
  static std::string num(double v, int precision = 3);

  /// Formats an integer.
  static std::string num(std::uint64_t v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ssps

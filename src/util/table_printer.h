// ASCII table rendering for the benchmark harness.
//
// Every experiment binary prints its result as a fixed-width table matching
// the paper's tables/figure series, so EXPERIMENTS.md entries can be pasted
// straight from tool output.
#pragma once

#include <string>
#include <vector>

namespace sbroker::util {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a row; missing cells render empty, extra cells are an error.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string fmt(double value, int precision = 2);

  /// Renders with a header rule, columns padded to the widest cell.
  std::string render() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sbroker::util

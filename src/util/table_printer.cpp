#include "util/table_printer.h"

#include <cstdio>
#include <stdexcept>

namespace sbroker::util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("TablePrinter: row has more cells than headers");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string TablePrinter::render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      line += cell;
      line.append(widths[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  size_t rule_len = 0;
  for (size_t c = 0; c < widths.size(); ++c) rule_len += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  out.append(rule_len, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace sbroker::util

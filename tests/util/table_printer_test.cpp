#include "util/table_printer.h"

#include <gtest/gtest.h>

namespace sbroker::util {
namespace {

TEST(TablePrinter, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NO_THROW(t.render());
}

TEST(TablePrinter, TooManyCellsThrows) {
  TablePrinter t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), std::invalid_argument);
}

TEST(TablePrinter, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace sbroker::util

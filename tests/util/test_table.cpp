/** @file Unit tests for TablePrinter. */

#include <gtest/gtest.h>

#include <sstream>

#include "util/table.hh"

namespace osp
{
namespace
{

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"bench", "speedup"});
    t.addRow({"iperf", "15.6"});
    t.addRow({"ab-rand", "2.8"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("iperf"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("-----"), std::string::npos);
    // Rows count: header + separator + 2 rows = 4 lines.
    int lines = 0;
    for (char c : out)
        lines += (c == '\n');
    EXPECT_EQ(lines, 4);
}

TEST(TablePrinter, FmtPrecision)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
}

TEST(TablePrinter, PctFormatsFraction)
{
    EXPECT_EQ(TablePrinter::pct(0.032, 1), "3.2%");
    EXPECT_EQ(TablePrinter::pct(1.0, 0), "100%");
}

TEST(TablePrinter, RowCellCountMismatchDies)
{
    TablePrinter t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

TEST(TablePrinter, NumRows)
{
    TablePrinter t({"x"});
    EXPECT_EQ(t.numRows(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
}

} // namespace
} // namespace osp

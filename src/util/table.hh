/**
 * @file
 * Aligned-column tables for benchmark harnesses.
 *
 * Every bench binary regenerates one figure or table of the paper;
 * TablePrinter renders the rows the paper reports in aligned
 * columns readable on a terminal.
 */

#ifndef OSP_UTIL_TABLE_HH
#define OSP_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace osp
{

/**
 * A simple column-aligned table builder.
 *
 * Usage:
 * @code
 *   TablePrinter t({"bench", "speedup"});
 *   t.addRow({"iperf", "15.6"});
 *   t.print(std::cout);
 * @endcode
 */
class TablePrinter
{
  public:
    /** Construct with the header row. */
    explicit TablePrinter(std::vector<std::string> header);

    /** Append a data row; must have as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Format a double with the given precision (helper for rows). */
    static std::string fmt(double value, int precision = 3);

    /** Format a double as a percentage string, e.g. "3.2%". */
    static std::string pct(double fraction, int precision = 1);

    /** Render with aligned columns and a header separator. */
    void print(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace osp

#endif // OSP_UTIL_TABLE_HH

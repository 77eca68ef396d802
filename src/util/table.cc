#include "table.hh"

#include <algorithm>
#include <cstdio>

#include "logging.hh"

namespace osp
{

TablePrinter::TablePrinter(std::vector<std::string> hdr)
    : header(std::move(hdr))
{
    if (header.empty())
        osp_panic("TablePrinter requires at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    if (row.size() != header.size()) {
        osp_panic("TablePrinter row has ", row.size(),
                  " cells, expected ", header.size());
    }
    rows.push_back(std::move(row));
}

std::string
TablePrinter::fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
TablePrinter::pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        width[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size()) {
                os << std::string(width[c] - row[c].size() + 2, ' ');
            }
        }
        os << '\n';
    };

    emit(header);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows)
        emit(row);
}

} // namespace osp

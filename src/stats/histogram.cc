#include "histogram.hh"

#include <cmath>

#include "util/logging.hh"

namespace osp
{

BubbleHistogram::BubbleHistogram(double x_bin_width, double y_bin_width)
    : xWidth(x_bin_width), yWidth(y_bin_width)
{
    if (x_bin_width <= 0.0 || y_bin_width <= 0.0)
        osp_panic("BubbleHistogram bin widths must be positive");
}

void
BubbleHistogram::add(double x, double y)
{
    auto xb = static_cast<std::int64_t>(std::floor(x / xWidth));
    auto yb = static_cast<std::int64_t>(std::floor(y / yWidth));
    cells[{xb, yb}] += 1;
}

std::vector<BubbleHistogram::Bubble>
BubbleHistogram::bubbles() const
{
    std::vector<Bubble> out;
    out.reserve(cells.size());
    for (const auto &[key, count] : cells) {
        Bubble b;
        b.xBin = key.first;
        b.yBin = key.second;
        b.xCenter = (static_cast<double>(key.first) + 0.5) * xWidth;
        b.yCenter = (static_cast<double>(key.second) + 0.5) * yWidth;
        b.count = count;
        out.push_back(b);
    }
    return out;
}

} // namespace osp

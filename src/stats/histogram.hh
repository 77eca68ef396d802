/**
 * @file
 * Fixed-bin 2-D "bubble" histograms.
 *
 * Figure 5 of the paper plots occurrences of sys_read invocations in
 * (instruction-count x cycle-count) bins of 1000 instructions by 4000
 * cycles, with bubble area proportional to the bin population.
 * BubbleHistogram reproduces that binning exactly.
 */

#ifndef OSP_STATS_HISTOGRAM_HH
#define OSP_STATS_HISTOGRAM_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace osp
{

/**
 * A sparse 2-D histogram over (x, y) bins; each non-empty cell is a
 * "bubble" whose weight is its population (Fig. 5).
 */
class BubbleHistogram
{
  public:
    /** A non-empty (x-bin, y-bin) cell. */
    struct Bubble
    {
        std::int64_t xBin;       //!< x bin index
        std::int64_t yBin;       //!< y bin index
        double xCenter;          //!< center of the x bin
        double yCenter;          //!< center of the y bin
        std::uint64_t count;     //!< population
    };

    /** @param x_bin_width width of x bins (e.g. 1000 instructions)
     *  @param y_bin_width width of y bins (e.g. 4000 cycles) */
    BubbleHistogram(double x_bin_width, double y_bin_width);

    /** Add one (x, y) sample. */
    void add(double x, double y);

    /** Number of non-empty cells (distinct bubbles). */
    std::size_t numBubbles() const { return cells.size(); }

    /** All bubbles, sorted by (xBin, yBin). */
    std::vector<Bubble> bubbles() const;

  private:
    double xWidth;
    double yWidth;
    std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t>
        cells;
};

} // namespace osp

#endif // OSP_STATS_HISTOGRAM_HH

#include "learning_window.hh"

#include <cmath>

#include "util/logging.hh"

namespace osp
{

std::uint64_t
learningWindowSize(double p_min, double doc)
{
    if (p_min <= 0.0 || p_min >= 1.0)
        osp_fatal("learningWindowSize: p_min must be in (0,1), got ",
                  p_min);
    if (doc <= 0.0 || doc >= 1.0)
        osp_fatal("learningWindowSize: doc must be in (0,1), got ",
                  doc);
    double n = std::log(1.0 - doc) / std::log(1.0 - p_min);
    auto window = static_cast<std::uint64_t>(std::ceil(n));
    if (window < 1)
        window = 1;
    return window;
}

} // namespace osp

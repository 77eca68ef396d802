/**
 * @file
 * The statically-derived initial learning window of Sec. 4.3.
 *
 * The paper models the capture of a behaviour cluster x with
 * probability of occurrence px over a learning window of N
 * invocations as a binomial process (Eq. 1). The probability that x
 * appears at least once in N i.i.d. trials (Eq. 2) is
 *
 *     P(k >= 1) = 1 - (1 - px)^N
 *
 * and the initial learning window is the smallest N such that this
 * probability reaches the chosen degree of confidence for every
 * cluster whose probability of occurrence is at least pmin (Eq. 3).
 * With pmin = 3% this gives N = 99 at 95% confidence (the paper
 * rounds to 100) and N = 152 at 99% ("a little bit over 150").
 */

#ifndef OSP_STATS_LEARNING_WINDOW_HH
#define OSP_STATS_LEARNING_WINDOW_HH

#include <cstdint>

namespace osp
{

/**
 * Smallest learning window N such that a cluster with probability of
 * occurrence >= p_min is seen at least once with probability >= doc
 * (Eq. 3): N = ceil(ln(1 - doc) / ln(1 - p_min)).
 *
 * @param p_min minimum probability of occurrence worth capturing
 *              (the paper uses 0.03)
 * @param doc   degree of confidence in (0, 1) (the paper uses 0.95
 *              and 0.99)
 */
std::uint64_t learningWindowSize(double p_min, double doc);

} // namespace osp

#endif // OSP_STATS_LEARNING_WINDOW_HH

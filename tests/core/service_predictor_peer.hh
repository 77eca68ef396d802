/** @file Test access to the ServicePredictor state that shipped
 *  code reads only from inside the predictor. */

#ifndef OSP_TESTS_CORE_SERVICE_PREDICTOR_PEER_HH
#define OSP_TESTS_CORE_SERVICE_PREDICTOR_PEER_HH

#include <cstdint>

#include "core/service_predictor.hh"

namespace osp
{

struct ServicePredictorTestPeer
{
    static bool
    wantsDetail(const ServicePredictor &pred)
    {
        return pred.mode_ != ServicePredictor::Mode::Predicting;
    }

    static std::uint64_t
    learningWindow(const ServicePredictor &pred)
    {
        return pred.window;
    }

    static const PerfLookupTable &
    table(const ServicePredictor &pred)
    {
        return pred.plt_;
    }
};

/** Should the next invocation be fully simulated? A pure query:
 *  unlike decideDetail() it does not advance audit scheduling. */
inline bool
wantsDetail(const ServicePredictor &pred)
{
    return ServicePredictorTestPeer::wantsDetail(pred);
}

} // namespace osp

#endif // OSP_TESTS_CORE_SERVICE_PREDICTOR_PEER_HH

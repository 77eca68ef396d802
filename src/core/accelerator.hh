/**
 * @file
 * The full-system simulation accelerator: the ServiceController that
 * plugs the per-service predictors into the Machine.
 *
 * This is the top of the paper's contribution. Attach one to a
 * Machine and OS-service invocations are routed per service type
 * through warm-up -> learning -> prediction, with detailed
 * simulation replaced by emulation + prediction wherever the
 * predictor is confident (Sec. 4). The paper's headline numbers
 * come out of exactly this object: 89% coverage, 3.2% average
 * execution-time error, 4.9x estimated speedup.
 */

#ifndef OSP_CORE_ACCELERATOR_HH
#define OSP_CORE_ACCELERATOR_HH

#include <array>
#include <istream>
#include <memory>
#include <ostream>

#include "service_predictor.hh"
#include "sim/interfaces.hh"

namespace osp
{

/** See file comment. */
class Accelerator : public ServiceController
{
  public:
    explicit Accelerator(const PredictorParams &params = {});

    // ServiceController
    DetailLevel chooseLevel(ServiceType type) override;
    Prediction onServiceEnd(const IntervalOutcome &outcome) override;

    /** Per-service predictor access (reports, tests). */
    const ServicePredictor &predictor(ServiceType type) const;

    /**
     * Aggregate predictor statistics over all services. Note this
     * is a total: the per-service split of every field — including
     * audits/auditFailures — is surfaced through telemetry as
     * "predictor.<service>" counters and through the accuracy
     * ledger's per-(service, cluster) entries.
     */
    ServicePredictor::Stats aggregateStats() const;

    /**
     * Serialize every service's learned clusters (a "performance
     * profile") to a line-oriented text stream.
     */
    void saveState(std::ostream &os) const;

    /**
     * Load a saved profile: every listed service starts directly in
     * the prediction phase with the loaded table. Reads @p is to its
     * end. Returns false on a malformed stream or on any text other
     * than what saveState() writes for the tables it lists, and then
     * the accelerator is unchanged: every row is parsed before any
     * table is replaced.
     *
     * Reusing a profile across runs is exactly the offline approach
     * the paper argues against (Sec. 2); the abl5 bench quantifies
     * how much accuracy that costs.
     */
    bool loadState(std::istream &is);

    const PredictorParams &params() const { return params_; }

    /**
     * Attach a telemetry sink. Every per-service predictor (existing
     * and future) registers its instruments as
     * "predictor.<service name>" — including per-service audit
     * counters — and routes predictions and audit outcomes into the
     * sink's accuracy ledger, whose drift tolerance is set to this
     * accelerator's auditTolerance. Pass nullptr to detach.
     */
    void setTelemetry(obs::Telemetry *telemetry);

  private:
    ServicePredictor &predictorRef(ServiceType type);

    PredictorParams params_;
    std::array<std::unique_ptr<ServicePredictor>, numServiceTypes>
        predictors;
    obs::Telemetry *telemetry_ = nullptr;
};

} // namespace osp

#endif // OSP_CORE_ACCELERATOR_HH

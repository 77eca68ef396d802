/**
 * @file
 * Asynchronous interrupt scheduling.
 *
 * Events are keyed to retired-instruction counts rather than cycles:
 * the predictor replaces detailed simulation of OS services with
 * emulation, and interrupt arrival must be identical either way or
 * prediction would perturb functional behaviour (DESIGN.md,
 * substitution table). The periodic timer (Int_239) re-arms itself;
 * device completions (Int_49 disk, Int_121 NIC) are scheduled by the
 * service handlers that initiate I/O.
 */

#ifndef OSP_OS_INTERRUPTS_HH
#define OSP_OS_INTERRUPTS_HH

#include <optional>
#include <queue>
#include <vector>

#include "sim/service_types.hh"
#include "util/types.hh"

namespace osp
{

/** See file comment. */
class InterruptController
{
  public:
    /**
     * @param timer_period instructions between timer ticks
     *                     (0 disables the periodic timer)
     */
    explicit InterruptController(InstCount timer_period);

    /** Schedule a one-shot interrupt at the given instruction
     *  count. */
    void schedule(ServiceType type, InstCount at,
                  SyscallArgs args = {});

    /**
     * The next interrupt due at or before @p now, if any. The timer
     * re-arms automatically when delivered.
     */
    std::optional<ServiceRequest> nextDue(InstCount now);

    /**
     * Instruction count of the earliest pending event (one-shot or
     * timer), or InstCount max when nothing will ever fire. Exact:
     * nextDue(now) returns an event iff now >= nextDueAt().
     */
    InstCount
    nextDueAt() const
    {
        InstCount due = ~InstCount(0);
        if (!heap.empty())
            due = heap.top().at;
        if (timerPeriod_ && nextTimerAt < due)
            due = nextTimerAt;
        return due;
    }

  private:
    struct Event
    {
        InstCount at;
        ServiceType type;
        SyscallArgs args;

        bool
        operator>(const Event &o) const
        {
            return at > o.at;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        heap;
    InstCount timerPeriod_;
    InstCount nextTimerAt;
};

} // namespace osp

#endif // OSP_OS_INTERRUPTS_HH

/** @file Tests for the Accelerator controller. */

#include <gtest/gtest.h>

#include "core/accelerator.hh"

namespace osp
{
namespace
{

PredictorParams
fastParams()
{
    PredictorParams p;
    p.warmupInvocations = 1;
    p.learningWindow = 3;
    return p;
}

ServiceController::IntervalOutcome
detailedOutcome(ServiceType type, std::uint64_t inv, InstCount insts,
                Cycles cycles)
{
    ServiceController::IntervalOutcome o;
    o.type = type;
    o.invocation = inv;
    o.insts = insts;
    o.detailed = true;
    o.cycles = cycles;
    o.mem.l2Misses = insts / 100;
    o.mem.l1dMisses = insts / 20;
    o.mem.l1iMisses = insts / 50;
    return o;
}

TEST(Accelerator, ChoosesDetailUntilLearned)
{
    Accelerator accel(fastParams());
    // warmup(1) + learning(3): four detailed invocations.
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(accel.chooseLevel(ServiceType::SysRead),
                  DetailLevel::OooCache);
        accel.onServiceEnd(
            detailedOutcome(ServiceType::SysRead, i, 1000, 5000));
    }
    EXPECT_EQ(accel.chooseLevel(ServiceType::SysRead),
              DetailLevel::Emulate);
}

TEST(Accelerator, ServicesLearnIndependently)
{
    Accelerator accel(fastParams());
    for (std::uint64_t i = 0; i < 4; ++i) {
        accel.onServiceEnd(
            detailedOutcome(ServiceType::SysRead, i, 1000, 5000));
    }
    EXPECT_EQ(accel.chooseLevel(ServiceType::SysRead),
              DetailLevel::Emulate);
    // sys_write never ran: still wants detail.
    EXPECT_EQ(accel.chooseLevel(ServiceType::SysWrite),
              DetailLevel::OooCache);
}

TEST(Accelerator, EmulatedIntervalGetsPrediction)
{
    Accelerator accel(fastParams());
    for (std::uint64_t i = 0; i < 4; ++i) {
        accel.onServiceEnd(
            detailedOutcome(ServiceType::SysRead, i, 1000, 5000));
    }
    ServiceController::IntervalOutcome o;
    o.type = ServiceType::SysRead;
    o.invocation = 4;
    o.insts = 1002;
    o.detailed = false;
    auto pred = accel.onServiceEnd(o);
    EXPECT_EQ(pred.cycles, 5000u);
    EXPECT_EQ(pred.mem.l2Misses, 10u);
}

TEST(Accelerator, AggregateStatsSumAcrossServices)
{
    Accelerator accel(fastParams());
    accel.onServiceEnd(
        detailedOutcome(ServiceType::SysRead, 0, 1000, 5000));
    accel.onServiceEnd(
        detailedOutcome(ServiceType::SysWrite, 0, 2000, 8000));
    auto stats = accel.aggregateStats();
    EXPECT_EQ(stats.warmupRuns, 2u);
    EXPECT_EQ(stats.learnedRuns, 0u);
}

} // namespace
} // namespace osp

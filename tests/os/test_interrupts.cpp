/** @file Tests for the interrupt controller. */

#include <gtest/gtest.h>

#include "os/interrupts.hh"

namespace osp
{
namespace
{

TEST(InterruptController, TimerFiresPeriodically)
{
    InterruptController irq(1000);
    EXPECT_FALSE(irq.nextDue(999).has_value());
    auto first = irq.nextDue(1000);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, ServiceType::IntTimer);
    // Re-armed: not due again until 2000.
    EXPECT_FALSE(irq.nextDue(1999).has_value());
    EXPECT_TRUE(irq.nextDue(2000).has_value());
}

TEST(InterruptController, TimerCatchesUpOneAtATime)
{
    InterruptController irq(100);
    // Far in the future: ticks deliver one per call.
    auto a = irq.nextDue(1000);
    auto b = irq.nextDue(1000);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->type, ServiceType::IntTimer);
    EXPECT_EQ(b->type, ServiceType::IntTimer);
}

TEST(InterruptController, ZeroPeriodDisablesTimer)
{
    InterruptController irq(0);
    EXPECT_FALSE(irq.nextDue(1ULL << 60).has_value());
}

TEST(InterruptController, OneShotDelivery)
{
    InterruptController irq(0);
    SyscallArgs args;
    args.arg0 = 7;
    irq.schedule(ServiceType::IntDisk, 500, args);
    EXPECT_FALSE(irq.nextDue(499).has_value());
    auto due = irq.nextDue(500);
    ASSERT_TRUE(due.has_value());
    EXPECT_EQ(due->type, ServiceType::IntDisk);
    EXPECT_EQ(due->args.arg0, 7u);
    // Consumed.
    EXPECT_FALSE(irq.nextDue(10000).has_value());
}

TEST(InterruptController, DeliversInTimeOrder)
{
    InterruptController irq(0);
    irq.schedule(ServiceType::IntNic, 300);
    irq.schedule(ServiceType::IntDisk, 100);
    irq.schedule(ServiceType::IntNic, 200);
    auto a = irq.nextDue(1000);
    auto b = irq.nextDue(1000);
    auto c = irq.nextDue(1000);
    ASSERT_TRUE(a && b && c);
    EXPECT_EQ(a->type, ServiceType::IntDisk);
    EXPECT_EQ(b->type, ServiceType::IntNic);
    EXPECT_EQ(c->type, ServiceType::IntNic);
}

TEST(InterruptController, DeviceBeforeTimerWhenEarlier)
{
    InterruptController irq(1000);
    irq.schedule(ServiceType::IntDisk, 500);
    auto first = irq.nextDue(1500);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, ServiceType::IntDisk);
    auto second = irq.nextDue(1500);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, ServiceType::IntTimer);
}

/** nextDueAt() is the exact poll-skipping hint the Machine's run
 *  loop uses: nextDue(now) yields an event iff now >= nextDueAt(). */
TEST(InterruptController, NextDueAtIsExact)
{
    InterruptController irq(1000);
    EXPECT_EQ(irq.nextDueAt(), 1000u);

    irq.schedule(ServiceType::IntDisk, 400);
    irq.schedule(ServiceType::IntNic, 700);
    EXPECT_EQ(irq.nextDueAt(), 400u);

    EXPECT_FALSE(irq.nextDue(399).has_value());
    auto disk = irq.nextDue(400);
    ASSERT_TRUE(disk.has_value());
    EXPECT_EQ(disk->type, ServiceType::IntDisk);

    EXPECT_EQ(irq.nextDueAt(), 700u);
    auto nic = irq.nextDue(700);
    ASSERT_TRUE(nic.has_value());
    EXPECT_EQ(nic->type, ServiceType::IntNic);

    // Only the self-arming timer is left.
    EXPECT_EQ(irq.nextDueAt(), 1000u);
    auto timer = irq.nextDue(1000);
    ASSERT_TRUE(timer.has_value());
    EXPECT_EQ(timer->type, ServiceType::IntTimer);
    EXPECT_EQ(irq.nextDueAt(), 2000u);  // re-armed
}

TEST(InterruptController, NextDueAtNeverWhenIdle)
{
    InterruptController irq(0);  // timer disabled
    EXPECT_EQ(irq.nextDueAt(), ~InstCount(0));
    irq.schedule(ServiceType::IntNic, 5);
    EXPECT_EQ(irq.nextDueAt(), 5u);
    ASSERT_TRUE(irq.nextDue(5).has_value());
    EXPECT_EQ(irq.nextDueAt(), ~InstCount(0));
}

} // namespace
} // namespace osp

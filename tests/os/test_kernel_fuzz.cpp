/** @file Robustness fuzzing: random (valid) service sequences must
 *  never panic the kernel, and plans must stay bounded and
 *  mode-invariant. */

#include <gtest/gtest.h>

#include <vector>

#include "os/kernel.hh"
#include "sim/codegen.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

class KernelFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(KernelFuzz, RandomServiceSequencesSurvive)
{
    KernelParams params;
    params.seed = GetParam();
    params.pageCachePages = 32;
    params.vfs.numDirs = 4;
    params.timerPeriod = 0;
    SyntheticKernel kernel(params);
    Pcg32 rng(GetParam(), 0xF0FF);
    // File ids are 0 .. num_files-1, all in the tree (none is added
    // below).
    std::uint32_t num_files = 0;
    for (std::uint32_t d = 0; d < kernel.vfs().numDirs(); ++d)
        num_files += static_cast<std::uint32_t>(
            kernel.vfs().dirFiles(d).size());

    std::vector<std::uint64_t> file_fds;
    std::vector<std::uint64_t> sock_fds;
    InstCount now = 0;

    for (int step = 0; step < 3000; ++step) {
        CodeGenerator gen(1, 1000 + step);
        int action = rng.range(10);
        if (action == 0 || file_fds.empty()) {
            std::uint32_t file =
                rng.range(num_files);
            auto fd = kernel.invoke(ServiceType::SysOpen,
                                    {file, 0, 0}, now, &gen);
            file_fds.push_back(fd.value);
        } else if (action == 1 && sock_fds.size() < 8) {
            auto fd = kernel.invoke(ServiceType::SysSocketcall,
                                    {0, 0, 0}, now, &gen);
            sock_fds.push_back(fd.value);
        } else if (action == 2 && file_fds.size() > 1) {
            kernel.invoke(ServiceType::SysClose,
                          {file_fds.back(), 0, 0}, now, &gen);
            file_fds.pop_back();
        } else if (action <= 5) {
            std::uint64_t fd = file_fds[rng.range(
                static_cast<std::uint32_t>(file_fds.size()))];
            kernel.invoke(
                ServiceType::SysRead,
                {fd, 1 + rng.range(32768), 0x20000000ULL}, now,
                &gen);
        } else if (action == 6 && !sock_fds.empty()) {
            std::uint64_t fd = sock_fds[rng.range(
                static_cast<std::uint32_t>(sock_fds.size()))];
            kernel.invoke(
                ServiceType::SysWrite,
                {fd, 1 + rng.range(65536), 0x20000000ULL}, now,
                &gen);
        } else if (action == 7) {
            kernel.invoke(
                ServiceType::SysStat64,
                {rng.range(num_files), 0x30000000ULL,
                 0},
                now, &gen);
        } else if (action == 8) {
            kernel.invoke(ServiceType::SysGettimeofday, {}, now,
                          &gen);
        } else {
            kernel.invoke(ServiceType::IntTimer, {}, now, &gen);
        }

        // Drain the plan; every invocation stays bounded.
        InstCount insts = 0;
        while (!gen.done()) {
            gen.next();
            ++insts;
        }
        EXPECT_LT(insts, 200000u);
        now += insts + 50;

        // Deliver whatever interrupts came due.
        while (auto irq = kernel.pendingInterrupt(now)) {
            CodeGenerator igen(1, 500000 + step);
            kernel.invoke(irq->type, irq->args, now, &igen);
            while (!igen.done()) {
                igen.next();
                ++now;
            }
        }
    }
}

TEST_P(KernelFuzz, PlansAreSeedDeterministic)
{
    auto trace = [&](std::uint64_t seed) {
        KernelParams params;
        params.seed = seed;
        params.vfs.numDirs = 3;
        params.timerPeriod = 0;
        SyntheticKernel kernel(params);
        std::vector<InstCount> counts;
        auto fd = kernel.invoke(ServiceType::SysOpen, {0, 0, 0}, 0,
                                nullptr);
        for (int i = 0; i < 50; ++i) {
            CodeGenerator gen(7, 100 + i);
            kernel.invoke(ServiceType::SysRead,
                          {fd.value, 4096, 0x20000000ULL}, 0,
                          &gen);
            counts.push_back(gen.pendingOps());
        }
        return counts;
    };
    std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) + 11;
    EXPECT_EQ(trace(seed), trace(seed));
    // And different seeds jitter the plans.
    EXPECT_NE(trace(seed), trace(seed + 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz,
                         ::testing::Range(1, 6));

} // namespace
} // namespace osp

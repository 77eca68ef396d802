/** @file Tests for the kernel address-space layout and profiles. */

#include <gtest/gtest.h>

#include "os/layout.hh"

namespace osp
{
namespace
{

TEST(KernelLayout, ServiceCodeRegionsAreDisjoint)
{
    KernelLayout layout = makeKernelLayout();
    for (int a = 0; a < numServiceTypes; ++a) {
        const Region &ra = layout.serviceCode[a];
        EXPECT_GT(ra.size, 0u);
        EXPECT_GE(ra.base, kernelBase);
        for (int b = a + 1; b < numServiceTypes; ++b) {
            const Region &rb = layout.serviceCode[b];
            bool disjoint = ra.base + ra.size <= rb.base ||
                            rb.base + rb.size <= ra.base;
            EXPECT_TRUE(disjoint) << a << " vs " << b;
        }
    }
}

TEST(KernelLayout, ServiceCodeMatchesFootprints)
{
    KernelLayout layout = makeKernelLayout();
    for (int t = 0; t < numServiceTypes; ++t) {
        EXPECT_EQ(layout.serviceCode[t].size,
                  serviceCodeFootprint(static_cast<ServiceType>(t)));
    }
}

TEST(KernelLayout, AggregateCodeFootprintExceedsL1I)
{
    // The reason OS IPC is low (Fig. 3b): kernel code >> 16KB L1I.
    std::uint64_t total = 0;
    for (int t = 0; t < numServiceTypes; ++t)
        total += serviceCodeFootprint(static_cast<ServiceType>(t));
    EXPECT_GT(total, 256u * 1024);
}

TEST(KernelLayout, DataAreasAboveKernelBase)
{
    KernelLayout layout = makeKernelLayout();
    for (const Region *r :
         {&layout.entryCode, &layout.stack, &layout.dentryArea,
          &layout.socketArea, &layout.driverArea, &layout.mmArea,
          &layout.ipcArea, &layout.timeArea,
          &layout.pageCacheArea}) {
        EXPECT_GE(r->base, kernelBase);
        EXPECT_GT(r->size, 0u);
    }
}

TEST(KernelLayout, PageCacheAreaFitsRotatingPool)
{
    // 1024 capacity x 8 spread x 4KB must fit the frame area.
    KernelLayout layout = makeKernelLayout();
    EXPECT_GE(layout.pageCacheArea.size,
              1024ULL * 8 * 4096);
}

TEST(ServiceProfiles, KernelCodeIsBranchyAndSerial)
{
    KernelLayout layout = makeKernelLayout();
    CodeProfile svc =
        serviceProfile(layout, ServiceType::SysRead);
    CodeProfile entry = entryProfile(layout);
    EXPECT_GT(svc.branchFrac, 0.15);
    EXPECT_LT(svc.depDistMean, 4.0);
    EXPECT_GT(svc.branchRandomFrac, entry.branchRandomFrac);
    EXPECT_LT(svc.blockRunBytes, entry.blockRunBytes);
}

TEST(ServiceProfiles, CopyLoopHasTinyFootprint)
{
    KernelLayout layout = makeKernelLayout();
    CodeProfile copy = copyProfile(layout, ServiceType::SysRead);
    EXPECT_LE(copy.code.size, 4096u);
    // The copy loop lives inside its service's code region.
    const Region &svc =
        layout.serviceCode[static_cast<int>(ServiceType::SysRead)];
    EXPECT_GE(copy.code.base, svc.base);
    EXPECT_LE(copy.code.base + copy.code.size,
              svc.base + svc.size);
}

TEST(ServiceTypes, Names)
{
    EXPECT_STREQ(serviceName(ServiceType::SysRead), "sys_read");
    EXPECT_STREQ(serviceName(ServiceType::IntTimer), "Int_239");
    EXPECT_STREQ(serviceName(ServiceType::IntNic), "Int_121");
    EXPECT_STREQ(serviceName(ServiceType::IntDisk), "Int_49");
    EXPECT_STREQ(serviceName(ServiceType::IntPageFault), "Int_14");
}

} // namespace
} // namespace osp

/** @file Tests for the synthetic VFS and dentry cache. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "os/vfs.hh"

namespace osp
{
namespace
{

VfsParams
smallParams()
{
    VfsParams p;
    p.numDirs = 10;
    p.filesPerDirMin = 2;
    p.filesPerDirMax = 5;
    p.fileSizeMin = 1024;
    p.fileSizeMax = 8192;
    p.dentryCapacity = 16;
    return p;
}

/** Number of files: every file is in a directory (addFile()'s
 *  in directory 0), with ids 0 .. n-1. */
std::uint32_t
numFiles(const Vfs &vfs)
{
    std::size_t n = 0;
    for (std::uint32_t d = 0; d < vfs.numDirs(); ++d)
        n += vfs.dirFiles(d).size();
    return static_cast<std::uint32_t>(n);
}

TEST(Vfs, DeterministicTree)
{
    Vfs a(smallParams(), 42);
    Vfs b(smallParams(), 42);
    ASSERT_EQ(numFiles(a), numFiles(b));
    for (std::uint32_t f = 0; f < numFiles(a); ++f) {
        EXPECT_EQ(a.fileSize(f), b.fileSize(f));
        EXPECT_EQ(a.pathDepth(f), b.pathDepth(f));
    }
}

TEST(Vfs, DifferentSeedsDiffer)
{
    Vfs a(smallParams(), 42);
    Vfs b(smallParams(), 43);
    bool any_diff = numFiles(a) != numFiles(b);
    for (std::uint32_t f = 0;
         !any_diff && f < std::min(numFiles(a), numFiles(b)); ++f) {
        any_diff = a.fileSize(f) != b.fileSize(f);
    }
    EXPECT_TRUE(any_diff);
}

TEST(Vfs, TreeShapeWithinParams)
{
    VfsParams p = smallParams();
    Vfs vfs(p, 7);
    EXPECT_EQ(vfs.numDirs(), p.numDirs);
    std::uint32_t total = 0;
    for (std::uint32_t d = 0; d < vfs.numDirs(); ++d) {
        const auto &files = vfs.dirFiles(d);
        EXPECT_GE(files.size(), p.filesPerDirMin);
        EXPECT_LE(files.size(), p.filesPerDirMax);
        total += files.size();
    }
    for (std::uint32_t f = 0; f < total; ++f) {
        EXPECT_GE(vfs.fileSize(f), p.fileSizeMin);
        EXPECT_LE(vfs.fileSize(f),
                  static_cast<std::uint64_t>(p.fileSizeMax * 1.01));
        EXPECT_GE(vfs.pathDepth(f), 3u);
        EXPECT_LE(vfs.pathDepth(f), 6u);
    }
}

TEST(Vfs, AddFileRegisters)
{
    Vfs vfs(smallParams(), 7);
    std::uint32_t before = numFiles(vfs);
    std::uint32_t id = vfs.addFile(1400 * 1024, 4);
    EXPECT_EQ(id, before);
    EXPECT_EQ(vfs.fileSize(id), 1400u * 1024);
    EXPECT_EQ(vfs.pathDepth(id), 4u);
}

TEST(Vfs, ResolveColdThenWarm)
{
    Vfs vfs(smallParams(), 7);
    std::uint32_t f = 0;
    std::uint32_t cold = vfs.resolve(f);
    EXPECT_GT(cold, 0u);
    EXPECT_LE(cold, vfs.pathDepth(f));
    // Immediately re-resolving: fully cached.
    EXPECT_EQ(vfs.resolve(f), 0u);
}

TEST(Vfs, SiblingsSharePrefixDentries)
{
    Vfs vfs(smallParams(), 7);
    const auto &files = vfs.dirFiles(0);
    ASSERT_GE(files.size(), 2u);
    vfs.resolve(files[0]);
    // The sibling misses at most its leaf (prefix cached).
    EXPECT_LE(vfs.resolve(files[1]), 1u);
}

TEST(Vfs, DentryCapacityEvicts)
{
    VfsParams p = smallParams();
    p.dentryCapacity = 4;
    Vfs vfs(p, 7);
    // Touch many files across dirs: dentries must be evicted.
    for (std::uint32_t d = 0; d < vfs.numDirs(); ++d)
        for (std::uint32_t f : vfs.dirFiles(d))
            vfs.resolve(f);
    // An early file resolves cold again.
    EXPECT_GT(vfs.resolve(vfs.dirFiles(0)[0]), 0u);
}

/** Resolve one file per directory, re-resolving the first
 *  directory's first file in between so it stays cached; returns
 *  each resolve's dentry misses, ending with a re-resolve of the
 *  second directory's first file. */
std::vector<std::uint64_t>
driveVfs(Vfs &vfs)
{
    std::vector<std::uint64_t> out;
    const std::uint32_t hot = vfs.dirFiles(0)[0];
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t d = 1; d < vfs.numDirs(); ++d) {
            out.push_back(vfs.resolve(vfs.dirFiles(d)[0]));
            out.push_back(vfs.resolve(hot));
        }
    }
    out.push_back(vfs.resolve(vfs.dirFiles(1)[0]));
    return out;
}

/** A copy carries its own dentry index: driven with the same
 *  sequence as the original and as an independently built twin,
 *  all three agree (see PageCache.CopyDrivesLikeTheOriginal). */
TEST(Vfs, CopyDrivesLikeTheOriginal)
{
    Vfs original(smallParams(), 7);
    Vfs twin(smallParams(), 7);
    for (std::uint32_t f : original.dirFiles(0)) {
        original.resolve(f);
        twin.resolve(f);
    }
    Vfs copy(original);
    const std::vector<std::uint64_t> want = driveVfs(twin);
    EXPECT_GT(want.back(), 0u);  // the drive evicted its dentries
    EXPECT_EQ(driveVfs(copy), want);
    EXPECT_EQ(driveVfs(original), want);
}

TEST(Vfs, BadIdsDie)
{
    Vfs vfs(smallParams(), 7);
    EXPECT_DEATH(vfs.fileSize(100000), "bad file");
    EXPECT_DEATH(vfs.dirFiles(100000), "bad dir");
    EXPECT_DEATH(vfs.resolve(100000), "bad file");
}

} // namespace
} // namespace osp

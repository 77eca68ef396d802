/**
 * @file
 * A synthetic file-system tree with a dentry cache.
 *
 * Generates a deterministic directory tree (for the du / find-od
 * workloads, which walk '/usr') and supports registering extra files
 * with exact sizes (the web server's eight documents of
 * Sec. 5.2). Path resolution cost depends on the number of path
 * components and on whether each component's dentry is cached — the
 * state that differentiates sys_open / sys_stat64 behaviour points.
 */

#ifndef OSP_OS_VFS_HH
#define OSP_OS_VFS_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "util/random.hh"

namespace osp
{

/** Shape of the generated tree. */
struct VfsParams
{
    std::uint32_t numDirs = 160;
    std::uint32_t filesPerDirMin = 4;
    std::uint32_t filesPerDirMax = 24;
    /** File sizes are log-uniform between these bounds (bytes). */
    std::uint64_t fileSizeMin = 2 * 1024;
    std::uint64_t fileSizeMax = 96 * 1024;
    /** Dentry-cache capacity (entries) before LRU eviction. */
    std::uint32_t dentryCapacity = 4096;
};

/** See file comment. */
class Vfs
{
  public:
    Vfs(const VfsParams &params, std::uint64_t seed);

    /** A deep copy: the dentry index is rebuilt over the copied LRU
     *  list (a member-wise copy would point into @p other's). */
    Vfs(const Vfs &other);
    Vfs &operator=(const Vfs &) = delete;

    /** Register an extra file (e.g. a web document); returns its
     *  file id. */
    std::uint32_t addFile(std::uint64_t size_bytes,
                          std::uint32_t path_components = 3);

    std::uint32_t numDirs() const
    {
        return static_cast<std::uint32_t>(dirs.size());
    }

    /** File ids contained in directory @p dir. */
    const std::vector<std::uint32_t> &dirFiles(std::uint32_t dir)
        const;

    std::uint64_t fileSize(std::uint32_t file) const;

    /** Number of path components of the file (resolution depth). */
    std::uint32_t pathDepth(std::uint32_t file) const;

    /**
     * Resolve a path: returns how many of the components missed the
     * dentry cache (0 = fully cached fast path) and inserts all of
     * them. Mirrors Linux's path_walk: each miss costs a slow
     * hash-chain allocation in the handler's plan.
     */
    std::uint32_t resolve(std::uint32_t file);

  private:
    struct FileInfo
    {
        std::uint64_t size;
        std::uint32_t dir;
        std::uint32_t depth;
    };

    /** Touch one dentry key; returns true on miss. */
    bool touchDentry(std::uint64_t key);

    VfsParams params;
    std::vector<FileInfo> files;
    std::vector<std::vector<std::uint32_t>> dirs;
    // Dentry cache: key -> LRU iterator.
    std::list<std::uint64_t> dentryLru;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator>
        dentryMap;
};

} // namespace osp

#endif // OSP_OS_VFS_HH

/**
 * @file
 * The kernel's file page cache.
 *
 * Exact-LRU cache of 4KB file pages with a bounded number of page
 * frames. Each cached (file, page) pair owns a stable frame address
 * inside the layout's pageCacheArea, so repeated reads of a hot page
 * touch the same cache lines — the state-dependence that gives
 * sys_read its multiple behaviour points (paper Sec. 3, Fig. 4):
 * a read served from the page cache executes a short copy path,
 * while a read that misses allocates frames, queues disk I/O and
 * runs several times more instructions.
 */

#ifndef OSP_OS_PAGE_CACHE_HH
#define OSP_OS_PAGE_CACHE_HH

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace osp
{

/** See file comment. */
class PageCache
{
  public:
    /**
     * @param capacity_pages number of 4KB frames resident at once
     * @param frame_base     address of frame 0
     * @param frame_spread   the frame allocator rotates over
     *                       capacity_pages * frame_spread distinct
     *                       frame addresses, like a real kernel
     *                       handing out fresh DRAM pages: newly
     *                       filled pages land on cache-cold frames
     *                       instead of recycling a hot compact
     *                       arena (which would make streaming file
     *                       data spuriously L2-resident under large
     *                       caches)
     */
    PageCache(std::uint32_t capacity_pages, Addr frame_base,
              std::uint32_t frame_spread = 8);

    /** A deep copy: the LRU index is rebuilt over the copied list
     *  (a member-wise copy would point into @p other's). */
    PageCache(const PageCache &other);
    PageCache &operator=(const PageCache &) = delete;

    /** Frame address of a cached page, if present (refreshes LRU). */
    std::optional<Addr> lookup(std::uint32_t file,
                               std::uint32_t page);

    /** Result of a fill. */
    struct FillResult
    {
        Addr frameAddr = 0;
        bool evicted = false;  //!< a victim page was displaced
    };

    /**
     * Insert a (file, page) mapping, evicting the LRU page if the
     * cache is full. Filling an already-present page just refreshes
     * it.
     */
    FillResult fill(std::uint32_t file, std::uint32_t page);

  private:
    static std::uint64_t
    key(std::uint32_t file, std::uint32_t page)
    {
        return (static_cast<std::uint64_t>(file) << 32) | page;
    }

    struct Entry
    {
        std::uint64_t key;
        std::uint32_t frame;
    };

    /** Next cold frame from the rotating pool. */
    std::uint32_t allocFrame();

    std::uint32_t capacityPages;
    Addr frameBase;
    std::uint32_t poolFrames;
    std::uint32_t nextFrame = 0;
    std::vector<bool> frameInUse;
    /** MRU at front. */
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map;
};

} // namespace osp

#endif // OSP_OS_PAGE_CACHE_HH

#include "page_cache.hh"

#include "util/logging.hh"

namespace osp
{

PageCache::PageCache(std::uint32_t capacity_pages, Addr frame_base,
                     std::uint32_t frame_spread)
    : capacityPages(capacity_pages), frameBase(frame_base)
{
    if (capacity_pages == 0)
        osp_fatal("PageCache capacity must be >= 1 page");
    if (frame_spread == 0)
        frame_spread = 1;
    poolFrames = capacity_pages * frame_spread;
    frameInUse.assign(poolFrames, false);
}

PageCache::PageCache(const PageCache &other)
    : capacityPages(other.capacityPages),
      frameBase(other.frameBase),
      poolFrames(other.poolFrames),
      nextFrame(other.nextFrame),
      frameInUse(other.frameInUse),
      lru(other.lru)
{
    for (auto it = lru.begin(); it != lru.end(); ++it)
        map.emplace(it->key, it);
}

std::uint32_t
PageCache::allocFrame()
{
    // At most capacityPages of poolFrames are in use, so this scan
    // terminates quickly.
    while (frameInUse[nextFrame])
        nextFrame = (nextFrame + 1) % poolFrames;
    std::uint32_t frame = nextFrame;
    frameInUse[frame] = true;
    nextFrame = (nextFrame + 1) % poolFrames;
    return frame;
}

std::optional<Addr>
PageCache::lookup(std::uint32_t file, std::uint32_t page)
{
    auto it = map.find(key(file, page));
    if (it == map.end())
        return std::nullopt;
    lru.splice(lru.begin(), lru, it->second);
    return frameBase + 4096ULL * it->second->frame;
}

PageCache::FillResult
PageCache::fill(std::uint32_t file, std::uint32_t page)
{
    FillResult result;
    std::uint64_t k = key(file, page);
    auto it = map.find(k);
    if (it != map.end()) {
        lru.splice(lru.begin(), lru, it->second);
        result.frameAddr = frameBase + 4096ULL * it->second->frame;
        return result;
    }

    if (map.size() >= capacityPages) {
        // Evict the LRU page; its frame returns to the cold pool
        // (and is not reused until the allocator wraps around).
        Entry victim = lru.back();
        lru.pop_back();
        map.erase(victim.key);
        frameInUse[victim.frame] = false;
        result.evicted = true;
    }
    std::uint32_t frame = allocFrame();
    lru.push_front(Entry{k, frame});
    map[k] = lru.begin();
    result.frameAddr = frameBase + 4096ULL * frame;
    return result;
}

} // namespace osp

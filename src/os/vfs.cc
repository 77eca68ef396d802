#include "vfs.hh"

#include <cmath>

#include "util/logging.hh"

namespace osp
{

Vfs::Vfs(const VfsParams &p, std::uint64_t seed) : params(p)
{
    Pcg32 rng(seed, 0xF5F5ULL);
    dirs.resize(params.numDirs);
    double log_min =
        std::log(static_cast<double>(params.fileSizeMin));
    double log_max =
        std::log(static_cast<double>(params.fileSizeMax));
    for (std::uint32_t d = 0; d < params.numDirs; ++d) {
        std::uint32_t count = static_cast<std::uint32_t>(
            rng.rangeInclusive(params.filesPerDirMin,
                               params.filesPerDirMax));
        for (std::uint32_t i = 0; i < count; ++i) {
            FileInfo info;
            info.size = static_cast<std::uint64_t>(
                std::exp(rng.uniform(log_min, log_max)));
            info.dir = d;
            // '/usr/<sub>/.../file': 3-6 components.
            info.depth = static_cast<std::uint32_t>(
                rng.rangeInclusive(3, 6));
            std::uint32_t id =
                static_cast<std::uint32_t>(files.size());
            files.push_back(info);
            dirs[d].push_back(id);
        }
    }
}

Vfs::Vfs(const Vfs &other)
    : params(other.params),
      files(other.files),
      dirs(other.dirs),
      dentryLru(other.dentryLru)
{
    for (auto it = dentryLru.begin(); it != dentryLru.end(); ++it)
        dentryMap.emplace(*it, it);
}

std::uint32_t
Vfs::addFile(std::uint64_t size_bytes, std::uint32_t path_components)
{
    FileInfo info;
    info.size = size_bytes;
    info.dir = 0;
    info.depth = path_components;
    std::uint32_t id = static_cast<std::uint32_t>(files.size());
    files.push_back(info);
    if (dirs.empty())
        dirs.resize(1);
    dirs[0].push_back(id);
    return id;
}

const std::vector<std::uint32_t> &
Vfs::dirFiles(std::uint32_t dir) const
{
    if (dir >= dirs.size())
        osp_panic("Vfs::dirFiles: bad dir id ", dir);
    return dirs[dir];
}

std::uint64_t
Vfs::fileSize(std::uint32_t file) const
{
    if (file >= files.size())
        osp_panic("Vfs::fileSize: bad file id ", file);
    return files[file].size;
}

std::uint32_t
Vfs::pathDepth(std::uint32_t file) const
{
    if (file >= files.size())
        osp_panic("Vfs::pathDepth: bad file id ", file);
    return files[file].depth;
}

bool
Vfs::touchDentry(std::uint64_t key)
{
    auto it = dentryMap.find(key);
    if (it != dentryMap.end()) {
        dentryLru.splice(dentryLru.begin(), dentryLru, it->second);
        return false;
    }
    if (dentryMap.size() >= params.dentryCapacity) {
        std::uint64_t victim = dentryLru.back();
        dentryLru.pop_back();
        dentryMap.erase(victim);
    }
    dentryLru.push_front(key);
    dentryMap[key] = dentryLru.begin();
    return true;
}

std::uint32_t
Vfs::resolve(std::uint32_t file)
{
    if (file >= files.size())
        osp_panic("Vfs::resolve: bad file id ", file);
    const FileInfo &info = files[file];
    std::uint32_t misses = 0;
    // Components share prefixes within a directory: model the
    // component keys as (dir, level) for the prefix plus a final
    // per-file key, so sibling files reuse cached prefix dentries.
    for (std::uint32_t level = 0; level + 1 < info.depth; ++level) {
        std::uint64_t key =
            (static_cast<std::uint64_t>(info.dir) << 8) | level;
        if (touchDentry(key))
            ++misses;
    }
    std::uint64_t leaf = 0x100000000ULL + file;
    if (touchDentry(leaf))
        ++misses;
    return misses;
}

} // namespace osp

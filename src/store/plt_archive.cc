#include "plt_archive.hh"

namespace osp::store
{

std::string
PltArchive::key(std::string_view workload)
{
    std::string k("plt/");
    k.append(workload);
    return k;
}

void
PltArchive::save(std::string_view workload, std::string_view profile)
{
    WriteTx tx = store_.beginWrite();
    tx.put(key(workload), profile);
    tx.commit();
}

std::optional<std::string>
PltArchive::load(std::string_view workload) const
{
    return store_.beginRead().get(key(workload));
}

} // namespace osp::store

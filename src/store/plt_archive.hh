/**
 * @file
 * The PLT archive: a typed layer over PageStore that persists
 * learned per-service performance-lookup-table profiles across
 * simulator runs.
 *
 * A profile is the line-oriented "ospredict-profile v1" text that
 * Accelerator::saveState() emits — per-service cluster snapshots
 * (Welford stats for instructions, cycles, IPC and cache rates).
 * The archive keys profiles by workload name, so a later sweep can
 * warm-start every predictor for that workload and skip the online
 * learning phase entirely (the paper's cross-run reuse experiment,
 * bench/abl5_cross_run.cpp, done persistently).
 *
 * Warm-starting CHANGES simulated results — predictions begin at
 * invocation one instead of after the learning window — so the
 * sweep runner treats the profile text's stable hash as part of a
 * cell's identity (see driver/cell_cache): cells simulated with a
 * profile never alias cells simulated without one.
 *
 * Key layout inside the shared store:
 *     plt/<workload>            -> profile text
 * which keeps the namespace disjoint from the cell cache's
 * "cell/<hash>" keys.
 */

#ifndef OSP_STORE_PLT_ARCHIVE_HH
#define OSP_STORE_PLT_ARCHIVE_HH

#include <optional>
#include <string>
#include <string_view>

#include "page_store.hh"

namespace osp::store
{

/**
 * Typed accessors for the "plt/" keyspace of a PageStore. Stateless;
 * every call runs its own transaction against @p store.
 */
class PltArchive
{
  public:
    explicit PltArchive(PageStore &store) : store_(store) {}

    /** Persist @p profile (Accelerator::saveState text) as the
     *  archived profile for @p workload, replacing any previous
     *  one. */
    void save(std::string_view workload, std::string_view profile);

    /** The archived profile for @p workload, or nullopt. */
    std::optional<std::string> load(std::string_view workload) const;

    /** The store key that holds @p workload's profile. */
    static std::string key(std::string_view workload);

  private:
    PageStore &store_;
};

} // namespace osp::store

#endif // OSP_STORE_PLT_ARCHIVE_HH

/**
 * @file
 * The content-addressed sweep-cell result cache — the layer that
 * turns the persistent page store into *incremental sweeps*.
 *
 * Every sweep cell's simulation is a pure function of (expanded
 * cell spec, seed, simulator code, trace capacity, warm-start
 * profile). The cache addresses each cell by a stable 64-bit hash
 * of exactly that tuple, serialized canonically (util/hash.hh over
 * the compact JSON of the context — reproducible from Python):
 *
 *     cell/<code-fingerprint>/<16-hex-digit key>
 *
 * The code fingerprint — a hash of the simulator sources, baked in
 * at build time (or overridden via --fingerprint for tests) — is
 * part of the key path, so any source change orphans every cached
 * cell; commitResults() prunes such stale entries (counted as
 * evictions). A fetched value is decoded (driver/cell_io) and its
 * cell coordinates cross-checked against the request, so even a
 * hash collision degrades to a miss, never a wrong result.
 *
 * Determinism: the cache sits entirely on the sweep's driving
 * thread (lookups before any cell runs, one commit transaction
 * after the join), and a hit reproduces the exact CellResult bytes
 * a fresh run would have produced — so a fully-warm incremental
 * sweep's results.json is byte-identical to a cold run's at every
 * thread count. Volatile statistics (hits/misses/bytes) are kept
 * out of the results document; they live in the cache's own
 * CellCacheCounts, dumped separately via statsToJson()
 * ("ospredict-store-stats-v1", the --store-stats file).
 */

#ifndef OSP_DRIVER_CELL_CACHE_HH
#define OSP_DRIVER_CELL_CACHE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/page_store.hh"
#include "sweep.hh"
#include "util/json.hh"

namespace osp
{

/** A cell cache's volatile statistics, cumulative per handle (the
 *  "cache" section of --store-stats). */
struct CellCacheCounts
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t failedReplays = 0;  //!< failed cells from claims
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;      //!< stale entries dropped
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
};

class CellCache
{
  public:
    /**
     * @param store            the backing page store (shared with
     *                         the PLT archive; this layer only
     *                         touches "cell/" keys)
     * @param code_fingerprint hex hash of the simulator sources
     */
    CellCache(store::PageStore &store,
              std::string code_fingerprint);

    /** Register the warm-start profile hash for @p workload:
     *  predicting cells of that workload get the hash folded into
     *  their cache identity. */
    void setWarmProfileHash(const std::string &workload,
                            std::uint64_t hash);

    /** The 16-hex-digit content hash of one cell (see file
     *  comment). Pure; identical for every thread count. */
    std::string cellKey(const SweepSpec &spec,
                        const SweepCell &cell,
                        std::size_t trace_capacity) const;

    /** cellKey() of every cell of expandSweep(@p spec), in
     *  cell-index order: the identity runSweep and every
     *  claim-loop worker compute alike. */
    std::vector<std::string> cellKeys(const SweepSpec &spec,
                                      std::size_t trace_capacity) const;

    /** The full store key for a cell key. */
    std::string storeKey(const std::string &cell_key) const;

    /**
     * Look up a cached result by cell key, verifying the decoded
     * cell coordinates against @p cell. Counts a hit or a miss.
     *
     * With @p claim_aware set (the --assemble pass), a cell with no
     * cached value but an *exhausted* claim record (state failed)
     * synthesizes the failed CellResult a live worker would have
     * produced — same coordinates, same error text — instead of
     * re-running the cell; counted separately as a failed replay.
     */
    std::optional<CellResult> fetch(const std::string &cell_key,
                                    const SweepCell &cell,
                                    bool claim_aware = false);

    /** Count cells that will run without a lookup (a cold,
     *  non-incremental recording pass). */
    void noteMisses(std::uint64_t n);

    /**
     * Persist executed cells in ONE transaction and drop every
     * "cell/", "claim/" or legacy "fleet/" entry belonging to a
     * different code fingerprint, and every legacy "claimhb/"
     * entry (counted as evictions). Failed cells are the caller's
     * responsibility to exclude — a cached failure would never be
     * retried.
     */
    void commitResults(
        const std::vector<std::pair<std::string,
                                    const CellResult *>> &items);

    const std::string &fingerprint() const { return fingerprint_; }

    /** The backing store — the claim executor shares the handle to
     *  run its claim/commit transactions. */
    store::PageStore &store() { return store_; }

    /**
     * The --store-stats document ("ospredict-store-stats-v1"):
     * cache counters plus the store's page-level statistics.
     * Volatile by design — never part of results.json.
     */
    JsonValue statsToJson();

  private:
    store::PageStore &store_;
    std::string fingerprint_;
    std::map<std::string, std::uint64_t> warmProfileHash_;
    CellCacheCounts counts_;
};

} // namespace osp

#endif // OSP_DRIVER_CELL_CACHE_HH

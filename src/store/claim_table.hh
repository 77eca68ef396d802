/**
 * @file
 * The claim keyspace that turns the page store into a coordination
 * substrate for multi-process sweeps.
 *
 * Workers cooperating on one sweep spec rendezvous on one key
 * family, next to the `cell/<fp>/...` result keys:
 * `claim/<fingerprint>/<cellkey>` holds one record per cell a
 * worker has taken responsibility for, encoding the owner id, the
 * claim state, the retry count and (for failed cells) the last
 * error text.
 *
 * Whether a `claimed` record's owner is still alive is the
 * kernel's answer, not the store's: each worker holds an flock(2)
 * on its owner sidecar (ownerLockPath()) for as long as it runs,
 * and process death, SIGKILL included, releases it. A claim whose
 * owner's sidecar can be locked belongs to a dead worker and may
 * be reclaimed (driver/claim_executor). Older builds also kept a
 * `claimhb/<fingerprint>` counter; nothing reads or writes it any
 * more, and the cell cache evicts it.
 *
 * Records are canonical compact JSON so tools/check_store.py can
 * validate the keyspace without C++ help. Encoding is deterministic
 * (util/json insertion-ordered objects).
 *
 * The table is a pure codec plus transaction helpers; arbitration
 * (who may write when) is the page store's shared-mode gate, and
 * policy (when to reclaim, when to give up) is the claim executor's
 * (src/driver/claim_executor).
 */

#ifndef OSP_STORE_CLAIM_TABLE_HH
#define OSP_STORE_CLAIM_TABLE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "page_store.hh"

namespace osp::store
{

/** Lifecycle of one cell's claim record. */
enum class ClaimState
{
    Claimed, //!< a worker took the cell and is executing it
    Retry,   //!< last attempt threw; awaiting another claimant
    Done,    //!< result committed under the matching cell key
    Failed,  //!< retries exhausted; terminal
};

/** Round-trippable wire name ("claimed", "retry", ...). */
std::string claimStateName(ClaimState state);

/** Inverse of claimStateName(); nullopt for unknown names. */
std::optional<ClaimState> claimStateFromName(const std::string &name);

/** One `claim/<fp>/<cellkey>` record. */
struct ClaimRecord
{
    std::string owner;       //!< claiming worker's id
    ClaimState state = ClaimState::Claimed;
    std::uint64_t retries = 0;
    std::string error;       //!< last failure text ("" when none)
};

/** See file comment. */
class ClaimTable
{
  public:
    /** `claim/<fingerprint>/<cellkey>`. @p cell_key is the cell
     *  cache's content hash, not the full store key. */
    static std::string claimKey(const std::string &fingerprint,
                                const std::string &cell_key);

    /** `<store path>.owner.<16-hex stableHash64(owner)>`: the
     *  sidecar a live worker named @p owner holds flock'ed. */
    static std::string ownerLockPath(const std::string &store_path,
                                     const std::string &owner);

    /** Canonical compact-JSON encoding ("error" omitted when
     *  empty). */
    static std::string encode(const ClaimRecord &record);

    /** Strict decode; nullopt on malformed input (tools report
     *  those as corruption, workers treat them as absent). */
    static std::optional<ClaimRecord> decode(std::string_view text);

    explicit ClaimTable(std::string fingerprint)
        : fingerprint_(std::move(fingerprint))
    {
    }

    /** Record for @p cell_key in @p tx, nullopt when absent or
     *  malformed. */
    template <typename Tx>
    std::optional<ClaimRecord>
    get(const Tx &tx, const std::string &cell_key) const
    {
        auto raw = tx.get(claimKey(fingerprint_, cell_key));
        if (!raw)
            return std::nullopt;
        return decode(*raw);
    }

    /** Stage @p record for @p cell_key into @p tx. */
    void
    put(WriteTx &tx, const std::string &cell_key,
        const ClaimRecord &record) const
    {
        tx.put(claimKey(fingerprint_, cell_key), encode(record));
    }

  private:
    std::string fingerprint_;
};

} // namespace osp::store

#endif // OSP_STORE_CLAIM_TABLE_HH

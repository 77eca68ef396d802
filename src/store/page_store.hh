/**
 * @file
 * A page-oriented, mmap-backed, crash-safe key-value store — the
 * persistence layer behind cross-run PLT reuse and incremental
 * sweeps (the boltdb design, cut down to this repo's needs).
 *
 * File format (all integers little-endian):
 *
 *  - The file is an array of fixed-size pages; the page size is the
 *    OS VM page size at creation time and is recorded in the meta,
 *    so a file opens correctly on machines with a different VM page
 *    size.
 *  - Every allocated page starts with a 16-byte PageHeader {id,
 *    flags, count, overflow}; `overflow` is the number of extra
 *    contiguous pages forming one logical run (large values, the
 *    root directory, the freelist).
 *  - Pages 0 and 1 are two alternating meta pages. A meta carries
 *    {magic, version, pageSize, root, freelist, numPages, txid,
 *    checksum}; the checksum is 64-bit FNV-1a over the preceding
 *    meta bytes (util/hash.hh — reproduced by
 *    tools/check_store.py). Commit N writes meta slot N%2, so a
 *    torn meta write always leaves the previous commit's meta
 *    intact: open picks the valid meta with the larger txid.
 *  - The key space is one two-level copy-on-write B+tree: a root
 *    directory run listing (first key, leaf page) pairs in key
 *    order, and single-page leaves of sorted {key, value} records.
 *    Values too large to inline live in overflow runs referenced by
 *    the record.
 *  - The freelist run lists reusable page ids. Pages freed by a
 *    commit stay *pending* — unavailable for reuse — until every
 *    reader that could still reference them has finished; they are
 *    written into the on-disk freelist immediately, which is safe
 *    because a crash also terminates those readers.
 *
 * Transactions: single-writer (a mutex serializes WriteTx),
 * many-reader. A write commit never modifies a page any committed
 * tree references — dirty leaves, the root and the freelist are
 * rewritten to fresh pages — so ReadTx is a true snapshot: it pins
 * the root it started from (plus the mmap view, see mmap_file.hh)
 * and is completely isolated from concurrent commits. Durability
 * ordering is data-pages msync, then meta write, then meta msync;
 * killing the process between any two steps recovers to the
 * previous commit.
 *
 * Multi-process arbitration (StoreOptions): every store has a
 * sidecar lockfile "<path>.lock" (see FileLock in mmap_file.hh).
 *
 *  - *Exclusive* (default): a read-write open acquires the lock
 *    for the store's whole lifetime, so a second read-write open —
 *    from another process or another handle in this one — fails
 *    fast with a diagnostic naming the holder instead of silently
 *    corrupting the file (StoreOptions::lockWaitMs bounds an
 *    optional wait). Read-only opens take no lock; they are
 *    offline-inspection tools.
 *  - *Shared* (worker mode): the open does not keep the lock.
 *    Instead EVERY transaction — read and write — holds it from
 *    begin to destruction, globally serializing transactions
 *    across all sharing processes, and re-reads the meta pages
 *    (plus freelist and mapping length) at begin so each
 *    transaction starts from the newest committed tree. This is
 *    deliberately coarse: distributed sweep workers spend their
 *    time simulating *outside* transactions, so a global
 *    transaction gate costs them nothing while making cross-
 *    process reader/page-reuse races impossible by construction.
 *    Transactions cannot nest on one thread in this mode (the
 *    store throws rather than self-deadlocking).
 */

#ifndef OSP_STORE_PAGE_STORE_HH
#define OSP_STORE_PAGE_STORE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mmap_file.hh"
#include "obs/metrics.hh"

namespace osp::store
{

/** On-disk page types (PageHeader::flags). */
enum PageFlags : std::uint16_t
{
    PageMeta = 0x01,
    PageFreelist = 0x02,
    PageBranch = 0x04,
    PageLeaf = 0x08,
    PageOverflow = 0x10,
};

/** Fixed 16-byte header of every allocated page. */
struct PageHeader
{
    std::uint64_t id = 0;
    std::uint16_t flags = 0;
    std::uint16_t count = 0;     //!< leaf record count
    std::uint32_t overflow = 0;  //!< extra pages in this run
};

inline constexpr std::size_t pageHeaderSize = 16;
inline constexpr std::uint32_t storeMagic = 0x4F535044;  // "OSPD"
inline constexpr std::uint32_t storeVersion = 1;
/** Maximum accepted key length (values are unbounded). */
inline constexpr std::size_t maxKeySize = 1024;

/** Decoded meta page. */
struct Meta
{
    std::uint32_t magic = storeMagic;
    std::uint32_t version = storeVersion;
    std::uint32_t pageSize = 0;
    std::uint32_t reserved = 0;
    std::uint64_t root = 0;      //!< root run page id; 0 = empty
    std::uint64_t freelist = 0;  //!< freelist run page id; 0 = empty
    std::uint64_t numPages = 0;  //!< allocation high-water mark
    std::uint64_t txid = 0;
    std::uint64_t checksum = 0;  //!< FNV-1a of the fields above
};

/** Point-in-time store statistics (info()). */
struct StoreInfo
{
    std::uint32_t pageSize = 0;
    std::uint64_t txid = 0;
    std::uint64_t numPages = 0;
    std::uint64_t freePages = 0;
    std::uint64_t pendingPages = 0;
    std::uint64_t leafPages = 0;
    std::uint64_t rootRunPages = 0;
    std::uint64_t keys = 0;
    std::uint64_t fileBytes = 0;
};

/**
 * Cumulative self-profiling counters for one store handle. The store
 * is the claim executor's scaling bottleneck, so contention must be
 * measurable rather than guessed: every flock/gate acquisition
 * records how long it actually blocked (StoreOptions::lockWaitMs
 * only bounds the wait), and every commit records its wall time and
 * page traffic. Process-local — each handle profiles its own view of
 * the shared file, and each worker exports its own in the
 * `--store-stats` document.
 */
struct StoreProfile
{
    std::uint64_t lockAcquisitions = 0;  //!< successful gate/flock takes
    std::uint64_t lockWaitUsTotal = 0;   //!< total µs blocked on them
    std::uint64_t commitCount = 0;
    std::uint64_t commitUsTotal = 0;
    std::uint64_t pagesWrittenTotal = 0;  //!< COW pages across commits
    obs::Histogram lockWaitUs;       //!< µs blocked per acquisition
    obs::Histogram commitUs;         //!< µs per commit
    obs::Histogram commitCowPages;   //!< pages written per commit
    obs::Histogram commitLeafReads;  //!< B+tree leaves decoded per commit
};

class PageStore;

/**
 * A snapshot read transaction. Holds the mmap view and the root the
 * store had at begin; reads never block and never observe a later
 * commit. Destroying the object releases the snapshot (allowing
 * pages freed since to be reused).
 */
class ReadTx
{
  public:
    ~ReadTx();
    ReadTx(ReadTx &&other) noexcept;
    ReadTx &operator=(ReadTx &&) = delete;
    ReadTx(const ReadTx &) = delete;
    ReadTx &operator=(const ReadTx &) = delete;

    /** Value for @p key, or nullopt. */
    std::optional<std::string> get(std::string_view key) const;

    /**
     * Visit every (key, value) whose key starts with @p prefix, in
     * key order. Return false from @p fn to stop early.
     */
    void scan(std::string_view prefix,
              const std::function<bool(std::string_view,
                                       std::string_view)> &fn) const;

    /** Number of keys in the snapshot. */
    std::uint64_t size() const;

    std::uint64_t txid() const { return txid_; }

  private:
    friend class PageStore;
    ReadTx(PageStore *store, std::shared_ptr<MappedView> view,
           std::uint64_t root, std::uint64_t txid);

    PageStore *store_;
    std::shared_ptr<MappedView> view_;
    std::uint64_t root_;
    std::uint64_t txid_;
    bool gated_ = false;  //!< holds the shared-mode tx gate
};

/**
 * The (single) write transaction: stage puts/erases, then commit()
 * atomically or drop the object to roll back. Holds the store's
 * writer lock for its lifetime.
 */
class WriteTx
{
  public:
    ~WriteTx();
    WriteTx(WriteTx &&other) noexcept;
    WriteTx &operator=(WriteTx &&) = delete;
    WriteTx(const WriteTx &) = delete;
    WriteTx &operator=(const WriteTx &) = delete;

    /** Insert or replace. Throws on oversized keys. */
    void put(std::string_view key, std::string_view value);

    /** Remove @p key; false when absent. */
    bool erase(std::string_view key);

    /** Read through the transaction (sees staged writes). */
    std::optional<std::string> get(std::string_view key) const;

    /** scan() over the staged state, in key order. */
    void scan(std::string_view prefix,
              const std::function<bool(std::string_view,
                                       std::string_view)> &fn) const;

    /**
     * Write everything out with crash-safe ordering and publish the
     * new tree. Throws (leaving the committed state untouched) on
     * I/O errors or an armed fail point. The transaction is spent
     * afterwards.
     */
    void commit();

  private:
    friend class PageStore;
    explicit WriteTx(PageStore *store);

    struct Leaf
    {
        std::vector<std::pair<std::string, std::string>> records;
        bool dirty = false;
        /** Pages to free when this leaf is rewritten: its own page
         *  and its values' overflow runs, as (first page, count). */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> owned;
    };

    /** Index of the leaf that should hold @p key. */
    std::size_t leafIndexFor(std::string_view key) const;
    /** Decode a leaf on first touch. */
    Leaf &loadLeaf(std::size_t index);
    const Leaf &loadLeaf(std::size_t index) const;

    PageStore *store_;
    std::unique_lock<std::mutex> writerLock_;
    std::shared_ptr<MappedView> view_;
    std::uint64_t baseTxid_ = 0;
    bool done_ = false;
    bool gated_ = false;  //!< holds the shared-mode tx gate

    /** (first key, page id) of every base-tree leaf, key order. */
    std::vector<std::pair<std::string, std::uint64_t>> rootIndex_;
    mutable std::map<std::size_t, Leaf> leaves_;
};

/** Open/creation options. */
struct StoreOptions
{
    bool readOnly = false;
    /** Page size for a newly created file; 0 = the OS VM page
     *  size. Existing files always use their recorded size. */
    std::uint32_t pageSize = 0;
    /**
     * Shared (multi-process worker) mode: the writer gate is held
     * per transaction instead of per open, and every transaction
     * refreshes from disk first. See the file comment.
     */
    bool shared = false;
    /**
     * Exclusive mode: how long a read-write open waits for the
     * writer gate before failing with the holder diagnostic.
     * 0 = fail immediately (the `sweep --store-wait` flag).
     */
    long lockWaitMs = 0;
    /**
     * Shared mode: how long a transaction waits for the gate. The
     * generous default covers commit-sized critical sections of
     * any realistic set of workers; hitting it usually means an
     * *exclusive* handle holds the store open.
     */
    long txLockWaitMs = 60000;
};

/** See file comment. */
class PageStore
{
  public:
    /** Commit fail points (crash-safety tests). */
    enum class FailPoint
    {
        None,
        /** Throw after data pages are synced, before the meta page
         *  is written — models a kill mid-commit. */
        BeforeMetaWrite,
        /** Throw after the meta bytes are written but before they
         *  are synced (the meta may or may not survive a real
         *  crash; in-process state rolls back either way). */
        BeforeMetaSync,
    };

    /**
     * Open a store file, creating it when absent (unless
     * read-only). Throws std::runtime_error when the file exists
     * but no valid meta page is found (corruption is an error,
     * never a silent empty store).
     */
    static std::unique_ptr<PageStore>
    open(const std::string &path, const StoreOptions &options = {});

    ~PageStore();

    ReadTx beginRead();
    WriteTx beginWrite();

    StoreInfo info();

    /** Copy of the self-profiling state (thread-safe). */
    StoreProfile profile() const;

    const std::string &path() const { return file_->path(); }
    std::uint32_t pageSize() const { return meta_.pageSize; }
    bool shared() const { return shared_; }

    /** Arm a commit fail point (test seam; one-shot). */
    void setFailPoint(FailPoint fp) { failPoint_ = fp; }

  private:
    friend class ReadTx;
    friend class WriteTx;

    PageStore() = default;

    /** Raw page access on a view. */
    const unsigned char *pagePtr(const MappedView &view,
                                 std::uint64_t id) const;
    PageHeader readHeader(const MappedView &view,
                          std::uint64_t id) const;

    /** Decode the root directory run under @p root. */
    std::vector<std::pair<std::string, std::uint64_t>>
    decodeRoot(const MappedView &view, std::uint64_t root) const;

    /** Decode one leaf's records; fills @p owned with the leaf page
     *  and its overflow runs when non-null. */
    std::vector<std::pair<std::string, std::string>>
    decodeLeaf(const MappedView &view, std::uint64_t id,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>
                   *owned) const;

    /** Read a record's value (inline or via its overflow run). */
    std::string readValue(const MappedView &view,
                          const unsigned char *rec,
                          std::size_t ksize) const;

    void loadFreelist();
    void unregisterReader(std::uint64_t txid);

    /** Shared mode: acquire/release the cross-process transaction
     *  gate (in-process queueing + the sidecar flock). acquire
     *  throws on same-thread nesting or gate timeout. */
    void acquireTxGate();
    void releaseTxGate();

    /** Shared mode, gate + stateMu_ held: remap if the file grew
     *  and adopt the newest committed meta/freelist from disk. */
    void refreshFromDisk();

    /** Allocate a run of @p n contiguous pages from the free list
     *  or the end of the file (no mapping change; commit grows the
     *  file afterwards). Caller holds stateMu_. */
    std::uint64_t allocRun(std::uint64_t n);

    /** Move pending pages whose freeing commit is now invisible to
     *  every reader into the free list. Caller holds stateMu_. */
    void promotePending();

    /** The committing half of WriteTx::commit(). */
    void commitTx(WriteTx &tx);

    /** Self-profiling recorders (thread-safe; see StoreProfile). */
    void recordLockWait(std::uint64_t us);
    void recordCommit(std::uint64_t us, std::uint64_t cow_pages,
                      std::uint64_t leaf_reads);

    std::unique_ptr<MmapFile> file_;
    Meta meta_;                     //!< last committed meta
    std::vector<std::uint64_t> free_;
    /** txid -> pages that commit freed (await reader drain). */
    std::map<std::uint64_t, std::vector<std::uint64_t>> pending_;
    std::multiset<std::uint64_t> readers_;
    std::uint64_t allocHigh_ = 0;   //!< next never-used page id

    std::mutex stateMu_;   //!< meta_/free_/pending_/readers_/view
    std::mutex writerMu_;  //!< serializes write transactions
    mutable std::mutex profileMu_;  //!< guards profile_
    StoreProfile profile_;
    FailPoint failPoint_ = FailPoint::None;

    /** The sidecar writer gate ("<path>.lock"). Exclusive mode
     *  holds it from open to close; shared mode per transaction. */
    std::unique_ptr<FileLock> gate_;
    bool shared_ = false;
    long txLockWaitMs_ = 0;
    /** In-process half of the shared-mode gate: queues threads
     *  before the flock and detects same-thread nesting. */
    std::mutex gateMu_;
    std::condition_variable gateCv_;
    bool gateHeld_ = false;
    std::thread::id gateOwner_;
};

/** Meta checksum as stored on disk (exposed for tools/tests). */
std::uint64_t metaChecksum(const Meta &meta);

} // namespace osp::store

#endif // OSP_STORE_PAGE_STORE_HH

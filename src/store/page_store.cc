#include "page_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/hash.hh"

namespace osp::store
{

namespace
{

/** Microseconds elapsed since @p t0 (self-profiling only; wall time
 *  never feeds any deterministic output). */
std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

// All on-disk integers are little-endian, independent of the host.

void
putU16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

[[noreturn]] void
corrupt(const std::string &what)
{
    throw std::runtime_error("store: corrupt file: " + what);
}

void
encodeHeader(unsigned char *p, const PageHeader &h)
{
    putU64(p, h.id);
    putU16(p + 8, h.flags);
    putU16(p + 10, h.count);
    putU32(p + 12, h.overflow);
}

PageHeader
decodeHeader(const unsigned char *p)
{
    PageHeader h;
    h.id = getU64(p);
    h.flags = getU16(p + 8);
    h.count = getU16(p + 10);
    h.overflow = getU32(p + 12);
    return h;
}

/** Serialized meta payload (the checksummed prefix + checksum). */
constexpr std::size_t metaBytes = 56;

void
encodeMeta(unsigned char *p, const Meta &m)
{
    putU32(p, m.magic);
    putU32(p + 4, m.version);
    putU32(p + 8, m.pageSize);
    putU32(p + 12, m.reserved);
    putU64(p + 16, m.root);
    putU64(p + 24, m.freelist);
    putU64(p + 32, m.numPages);
    putU64(p + 40, m.txid);
    putU64(p + 48, m.checksum);
}

Meta
decodeMeta(const unsigned char *p)
{
    Meta m;
    m.magic = getU32(p);
    m.version = getU32(p + 4);
    m.pageSize = getU32(p + 8);
    m.reserved = getU32(p + 12);
    m.root = getU64(p + 16);
    m.freelist = getU64(p + 24);
    m.numPages = getU64(p + 32);
    m.txid = getU64(p + 40);
    m.checksum = getU64(p + 48);
    return m;
}

/** Encoded size of one leaf record. */
std::size_t
recordSize(std::size_t ksize, std::size_t vsize, bool inline_value)
{
    return 4 + 4 + 1 + ksize + (inline_value ? vsize : 8);
}

/** Largest record kept inline: a quarter of a leaf's data area, so
 *  a leaf always packs several records. */
std::size_t
inlineLimit(std::uint32_t page_size)
{
    return (page_size - pageHeaderSize) / 4;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

std::uint64_t
metaChecksum(const Meta &meta)
{
    unsigned char buf[metaBytes];
    Meta m = meta;
    m.checksum = 0;
    encodeMeta(buf, m);
    return stableHash64(buf, 48);
}

// --- raw page access -------------------------------------------------

const unsigned char *
PageStore::pagePtr(const MappedView &view, std::uint64_t id) const
{
    std::uint64_t off = id * meta_.pageSize;
    if (off + meta_.pageSize > view.length())
        corrupt("page " + std::to_string(id) + " beyond mapping");
    return view.data() + off;
}

PageHeader
PageStore::readHeader(const MappedView &view, std::uint64_t id) const
{
    PageHeader h = decodeHeader(pagePtr(view, id));
    if (h.id != id)
        corrupt("page " + std::to_string(id) + " header id " +
                std::to_string(h.id));
    return h;
}

std::vector<std::pair<std::string, std::uint64_t>>
PageStore::decodeRoot(const MappedView &view, std::uint64_t root) const
{
    std::vector<std::pair<std::string, std::uint64_t>> index;
    if (root == 0)
        return index;
    PageHeader h = readHeader(view, root);
    if (!(h.flags & PageBranch))
        corrupt("root page " + std::to_string(root) +
                " is not a branch");
    std::uint64_t run_pages = 1 + h.overflow;
    if ((root + run_pages) * meta_.pageSize > view.length())
        corrupt("root run beyond mapping");
    const unsigned char *data =
        pagePtr(view, root) + pageHeaderSize;
    std::size_t avail =
        run_pages * meta_.pageSize - pageHeaderSize;
    if (avail < 8)
        corrupt("root run too small");
    std::uint64_t count = getU64(data);
    std::size_t pos = 8;
    index.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        if (pos + 12 > avail)
            corrupt("root entry overruns run");
        std::uint64_t leaf = getU64(data + pos);
        std::uint32_t ksize = getU32(data + pos + 8);
        pos += 12;
        if (ksize > maxKeySize || pos + ksize > avail)
            corrupt("root key overruns run");
        index.emplace_back(
            std::string(reinterpret_cast<const char *>(data + pos),
                        ksize),
            leaf);
        pos += ksize;
    }
    return index;
}

std::string
PageStore::readValue(const MappedView &view,
                     const unsigned char *rec,
                     std::size_t ksize) const
{
    std::uint32_t vsize = getU32(rec + 4);
    bool overflow = rec[8] != 0;
    const unsigned char *payload = rec + 9 + ksize;
    if (!overflow) {
        return std::string(
            reinterpret_cast<const char *>(payload), vsize);
    }
    std::uint64_t ov = getU64(payload);
    PageHeader h = readHeader(view, ov);
    if (!(h.flags & PageOverflow))
        corrupt("value run page " + std::to_string(ov) +
                " is not overflow");
    std::uint64_t run_pages = 1 + h.overflow;
    std::size_t capacity =
        run_pages * meta_.pageSize - pageHeaderSize;
    if (vsize > capacity ||
        (ov + run_pages) * meta_.pageSize > view.length())
        corrupt("value run overruns file");
    return std::string(reinterpret_cast<const char *>(
                           pagePtr(view, ov) + pageHeaderSize),
                       vsize);
}

std::vector<std::pair<std::string, std::string>>
PageStore::decodeLeaf(
    const MappedView &view, std::uint64_t id,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> *owned)
    const
{
    PageHeader h = readHeader(view, id);
    if (!(h.flags & PageLeaf))
        corrupt("page " + std::to_string(id) + " is not a leaf");
    if (owned)
        owned->emplace_back(id, 1);
    const unsigned char *base = pagePtr(view, id);
    std::size_t avail = meta_.pageSize;
    std::size_t pos = pageHeaderSize;
    std::vector<std::pair<std::string, std::string>> records;
    records.reserve(h.count);
    for (std::uint16_t i = 0; i < h.count; ++i) {
        if (pos + 9 > avail)
            corrupt("leaf record overruns page");
        const unsigned char *rec = base + pos;
        std::uint32_t ksize = getU32(rec);
        std::uint32_t vsize = getU32(rec + 4);
        bool overflow = rec[8] != 0;
        std::size_t rec_size =
            recordSize(ksize, vsize, !overflow);
        if (ksize > maxKeySize || pos + rec_size > avail)
            corrupt("leaf record overruns page");
        std::string key(
            reinterpret_cast<const char *>(rec + 9), ksize);
        if (overflow && owned) {
            std::uint64_t ov = getU64(rec + 9 + ksize);
            PageHeader oh = readHeader(view, ov);
            owned->emplace_back(ov, 1 + oh.overflow);
        }
        records.emplace_back(std::move(key),
                             readValue(view, rec, ksize));
        pos += rec_size;
    }
    return records;
}

// --- open / create ---------------------------------------------------

namespace
{

/** Verdict on one decoded meta slot. */
enum class MetaCheck
{
    Invalid,    //!< not a meta this store wrote (torn, garbage)
    Valid,      //!< consistent with the file
    /** Checksummed, so a committed meta, yet it references pages
     *  past the end of the file: the file lost its tail. */
    Truncated,
};

/** Check a decoded meta at candidate page size @p page_size against
 *  a file of @p file_len bytes. */
MetaCheck
checkMeta(const Meta &m, std::uint32_t page_size,
          std::uint64_t file_len)
{
    if (m.magic != storeMagic || m.version != storeVersion)
        return MetaCheck::Invalid;
    if (m.pageSize != page_size || m.pageSize < 512)
        return MetaCheck::Invalid;
    if (m.checksum != metaChecksum(m))
        return MetaCheck::Invalid;
    if (m.numPages < 2)
        return MetaCheck::Invalid;
    if (m.numPages * m.pageSize > file_len)
        return MetaCheck::Truncated;
    if (m.root >= m.numPages || m.freelist >= m.numPages)
        return MetaCheck::Invalid;
    return MetaCheck::Valid;
}

} // namespace

std::unique_ptr<PageStore>
PageStore::open(const std::string &path, const StoreOptions &options)
{
    auto store = std::unique_ptr<PageStore>(new PageStore());
    store->shared_ = options.shared;
    store->txLockWaitMs_ = options.txLockWaitMs;

    // The sidecar writer gate. Exclusive read-write opens keep it
    // for the store's lifetime (a second read-write open fails with
    // the holder diagnostic below); shared mode holds it only
    // across open/creation, then per transaction. Read-only
    // exclusive opens are lockless offline inspection.
    if (options.shared || !options.readOnly) {
        store->gate_ = std::make_unique<FileLock>(path + ".lock");
        long wait = options.shared ? options.txLockWaitMs
                                   : options.lockWaitMs;
        auto lock_t0 = std::chrono::steady_clock::now();
        if (!store->gate_->tryLock(
                options.shared ? "shared worker" : "exclusive",
                wait)) {
            std::string holder = store->gate_->holderHint();
            throw std::runtime_error(
                "store: '" + path +
                "' is locked by another read-write handle" +
                (holder.empty() ? std::string()
                                : " [" + holder + "]") +
                "; close it, or wait for it with --store-wait");
        }
        store->recordLockWait(elapsedUs(lock_t0));
    }

    bool exists = false;
    {
        // A zero-length or absent file is "new"; anything else must
        // carry a valid meta.
        FILE *f = std::fopen(path.c_str(), "rb");
        if (f) {
            std::fseek(f, 0, SEEK_END);
            exists = std::ftell(f) > 0;
            std::fclose(f);
        }
    }

    if (!exists) {
        if (options.readOnly)
            throw std::runtime_error(
                "store: no such store file '" + path + "'");
        std::uint32_t page_size = options.pageSize
                                      ? options.pageSize
                                      : osDefaultPageSize();
        if (page_size < 512 || (page_size & (page_size - 1)) != 0)
            throw std::runtime_error(
                "store: page size must be a power of two >= 512");
        store->file_ = std::make_unique<MmapFile>(
            path, false, std::size_t{4} * page_size);

        Meta m;
        m.pageSize = page_size;
        m.root = 0;
        m.freelist = 0;
        m.numPages = 2;
        auto view = store->file_->view();
        for (std::uint64_t slot = 0; slot < 2; ++slot) {
            m.txid = slot;
            m.checksum = metaChecksum(m);
            unsigned char *p = view->data() + slot * page_size;
            PageHeader h;
            h.id = slot;
            h.flags = PageMeta;
            encodeHeader(p, h);
            encodeMeta(p + pageHeaderSize, m);
        }
        store->file_->sync(0, 2 * page_size);
        store->meta_ = m;  // txid 1 (slot 1) is the newest
        store->allocHigh_ = 2;
        if (options.shared)
            store->gate_->unlock();
        return store;
    }

    store->file_ =
        std::make_unique<MmapFile>(path, options.readOnly, 0);
    auto view = store->file_->view();
    std::uint64_t file_len = view->length();

    // Meta 0 sits at offset 0; meta 1 at offset pageSize, which we
    // normally learn from meta 0. When meta 0 is torn, probe the
    // usual page sizes for a valid meta 1. A committed meta is only
    // written once the file holds every page it references, so one
    // that overruns the file means the file was cut short: fail
    // closed rather than fall back to the older slot, whose pages
    // merely happen to lie in the surviving prefix.
    std::vector<Meta> valid;
    auto admit = [&](const Meta &m, std::uint32_t ps, int slot) {
        switch (checkMeta(m, ps, file_len)) {
          case MetaCheck::Invalid:
            return false;
          case MetaCheck::Truncated:
            throw std::runtime_error(
                "store: meta slot " + std::to_string(slot) + " of '" +
                path + "' references " +
                std::to_string(m.numPages * m.pageSize) +
                " bytes but the file has " +
                std::to_string(file_len) + " (truncated store)");
          case MetaCheck::Valid:
            break;
        }
        valid.push_back(m);
        return true;
    };
    if (file_len >= pageHeaderSize + metaBytes) {
        Meta m0 =
            decodeMeta(view->data() + pageHeaderSize);
        admit(m0, m0.pageSize, 0);
    }
    std::vector<std::uint32_t> candidates;
    if (!valid.empty())
        candidates.push_back(valid[0].pageSize);
    else
        candidates = {4096, 8192, 16384, 32768, 65536,
                      options.pageSize};
    for (std::uint32_t ps : candidates) {
        if (ps == 0 ||
            file_len < std::uint64_t{ps} + pageHeaderSize +
                           metaBytes)
            continue;
        if (admit(decodeMeta(view->data() + ps + pageHeaderSize), ps,
                  1))
            break;
    }
    if (valid.empty())
        throw std::runtime_error(
            "store: no valid meta page in '" + path +
            "' (corrupt or truncated store)");
    store->meta_ = valid[0];
    for (const Meta &m : valid) {
        if (m.txid > store->meta_.txid)
            store->meta_ = m;
    }
    store->allocHigh_ = store->meta_.numPages;
    store->loadFreelist();
    if (options.shared)
        store->gate_->unlock();
    return store;
}

PageStore::~PageStore() = default;

void
PageStore::loadFreelist()
{
    free_.clear();
    if (meta_.freelist == 0)
        return;
    auto view = file_->view();
    PageHeader h = readHeader(*view, meta_.freelist);
    if (!(h.flags & PageFreelist))
        corrupt("freelist page " + std::to_string(meta_.freelist) +
                " has wrong type");
    std::uint64_t run_pages = 1 + h.overflow;
    const unsigned char *data =
        pagePtr(*view, meta_.freelist) + pageHeaderSize;
    std::size_t avail =
        run_pages * meta_.pageSize - pageHeaderSize;
    if (avail < 8)
        corrupt("freelist run too small");
    std::uint64_t count = getU64(data);
    if (8 + count * 8 > avail)
        corrupt("freelist overruns run");
    free_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t id = getU64(data + 8 + i * 8);
        if (id < 2 || id >= meta_.numPages)
            corrupt("freelist lists page " + std::to_string(id));
        free_.push_back(id);
    }
    std::sort(free_.begin(), free_.end());
}

// --- shared-mode gate ------------------------------------------------

void
PageStore::acquireTxGate()
{
    auto lock_t0 = std::chrono::steady_clock::now();
    {
        std::unique_lock<std::mutex> lock(gateMu_);
        if (gateHeld_ &&
            gateOwner_ == std::this_thread::get_id())
            throw std::runtime_error(
                "store: nested transaction on shared-mode store "
                "'" +
                file_->path() + "'");
        gateCv_.wait(lock, [this] { return !gateHeld_; });
        gateHeld_ = true;
        gateOwner_ = std::this_thread::get_id();
    }
    if (!gate_->tryLock("shared worker", txLockWaitMs_)) {
        std::string holder = gate_->holderHint();
        {
            std::lock_guard<std::mutex> lock(gateMu_);
            gateHeld_ = false;
            gateOwner_ = std::thread::id();
        }
        gateCv_.notify_one();
        throw std::runtime_error(
            "store: timed out waiting for the writer gate of '" +
            file_->path() + "'" +
            (holder.empty() ? std::string()
                            : " [held by " + holder + "]"));
    }
    recordLockWait(elapsedUs(lock_t0));
}

void
PageStore::releaseTxGate()
{
    gate_->unlock();
    {
        std::lock_guard<std::mutex> lock(gateMu_);
        gateHeld_ = false;
        gateOwner_ = std::thread::id();
    }
    gateCv_.notify_one();
}

void
PageStore::refreshFromDisk()
{
    file_->refresh();
    auto view = file_->view();
    std::uint64_t file_len = view->length();
    // Both meta slots at the page size recorded at open (another
    // process cannot change it); adopt the newest valid commit.
    Meta newest = meta_;
    for (std::uint64_t slot = 0; slot < 2; ++slot) {
        std::uint64_t off =
            slot * meta_.pageSize + pageHeaderSize;
        if (off + metaBytes > file_len)
            continue;
        Meta m = decodeMeta(view->data() + off);
        if (checkMeta(m, meta_.pageSize, file_len) ==
                MetaCheck::Valid &&
            m.txid > newest.txid)
            newest = m;
    }
    if (newest.txid == meta_.txid)
        return;
    meta_ = newest;
    allocHigh_ = meta_.numPages;
    // The gate globally serializes transactions, so no reader —
    // here or in any other process — can still reference pages the
    // adopted freelist hands out.
    pending_.clear();
    loadFreelist();
}

// --- transactions ----------------------------------------------------

ReadTx
PageStore::beginRead()
{
    if (shared_) {
        acquireTxGate();
        try {
            std::lock_guard<std::mutex> lock(stateMu_);
            refreshFromDisk();
            readers_.insert(meta_.txid);
            ReadTx tx(this, file_->view(), meta_.root,
                      meta_.txid);
            tx.gated_ = true;
            return tx;
        } catch (...) {
            releaseTxGate();
            throw;
        }
    }
    std::lock_guard<std::mutex> lock(stateMu_);
    readers_.insert(meta_.txid);
    return ReadTx(this, file_->view(), meta_.root, meta_.txid);
}

void
PageStore::unregisterReader(std::uint64_t txid)
{
    std::lock_guard<std::mutex> lock(stateMu_);
    auto it = readers_.find(txid);
    if (it != readers_.end())
        readers_.erase(it);
}

ReadTx::ReadTx(PageStore *store, std::shared_ptr<MappedView> view,
               std::uint64_t root, std::uint64_t txid)
    : store_(store), view_(std::move(view)), root_(root),
      txid_(txid)
{
}

ReadTx::~ReadTx()
{
    if (!store_)
        return;
    store_->unregisterReader(txid_);
    if (gated_)
        store_->releaseTxGate();
}

ReadTx::ReadTx(ReadTx &&other) noexcept
    : store_(other.store_), view_(std::move(other.view_)),
      root_(other.root_), txid_(other.txid_), gated_(other.gated_)
{
    other.store_ = nullptr;
    other.gated_ = false;
}

std::optional<std::string>
ReadTx::get(std::string_view key) const
{
    auto index = store_->decodeRoot(*view_, root_);
    // Last leaf whose first key <= key.
    std::size_t lo = index.size();
    for (std::size_t i = 0; i < index.size(); ++i) {
        if (index[i].first <= key)
            lo = i;
        else
            break;
    }
    if (lo == index.size())
        return std::nullopt;
    auto records =
        store_->decodeLeaf(*view_, index[lo].second, nullptr);
    for (const auto &[k, v] : records) {
        if (k == key)
            return v;
        if (k > key)
            break;
    }
    return std::nullopt;
}

void
ReadTx::scan(std::string_view prefix,
             const std::function<bool(std::string_view,
                                      std::string_view)> &fn) const
{
    auto index = store_->decodeRoot(*view_, root_);
    // First leaf that could contain the prefix: the one before the
    // first leaf whose first key exceeds it.
    std::size_t start = 0;
    for (std::size_t i = 0; i < index.size(); ++i) {
        if (index[i].first <= prefix)
            start = i;
        else
            break;
    }
    for (std::size_t i = start; i < index.size(); ++i) {
        auto records =
            store_->decodeLeaf(*view_, index[i].second, nullptr);
        for (const auto &[k, v] : records) {
            if (startsWith(k, prefix)) {
                if (!fn(k, v))
                    return;
            } else if (k > prefix) {
                return;  // sorted: nothing later can match
            }
        }
    }
}

WriteTx
PageStore::beginWrite()
{
    if (file_->readOnly())
        throw std::runtime_error(
            "store: write transaction on read-only store");
    if (!shared_)
        return WriteTx(this);
    acquireTxGate();
    try {
        {
            std::lock_guard<std::mutex> lock(stateMu_);
            refreshFromDisk();
        }
        WriteTx tx(this);
        tx.gated_ = true;
        return tx;
    } catch (...) {
        releaseTxGate();
        throw;
    }
}

WriteTx::WriteTx(PageStore *store)
    : store_(store), writerLock_(store->writerMu_)
{
    std::lock_guard<std::mutex> lock(store_->stateMu_);
    view_ = store_->file_->view();
    baseTxid_ = store_->meta_.txid;
    rootIndex_ = store_->decodeRoot(*view_, store_->meta_.root);
}

WriteTx::~WriteTx()
{
    if (store_ && gated_)
        store_->releaseTxGate();
}

WriteTx::WriteTx(WriteTx &&other) noexcept
    : store_(other.store_),
      writerLock_(std::move(other.writerLock_)),
      view_(std::move(other.view_)), baseTxid_(other.baseTxid_),
      done_(other.done_), gated_(other.gated_),
      rootIndex_(std::move(other.rootIndex_)),
      leaves_(std::move(other.leaves_))
{
    other.store_ = nullptr;
    other.done_ = true;
    other.gated_ = false;
}

std::size_t
WriteTx::leafIndexFor(std::string_view key) const
{
    std::size_t lo = 0;
    for (std::size_t i = 0; i < rootIndex_.size(); ++i) {
        if (rootIndex_[i].first <= key)
            lo = i;
        else
            break;
    }
    return lo;
}

WriteTx::Leaf &
WriteTx::loadLeaf(std::size_t index)
{
    auto it = leaves_.find(index);
    if (it != leaves_.end())
        return it->second;
    Leaf leaf;
    if (index < rootIndex_.size()) {
        leaf.records = store_->decodeLeaf(
            *view_, rootIndex_[index].second, &leaf.owned);
    }
    return leaves_.emplace(index, std::move(leaf)).first->second;
}

const WriteTx::Leaf &
WriteTx::loadLeaf(std::size_t index) const
{
    return const_cast<WriteTx *>(this)->loadLeaf(index);
}

void
WriteTx::put(std::string_view key, std::string_view value)
{
    if (done_)
        throw std::runtime_error("store: put on spent WriteTx");
    if (key.empty() || key.size() > maxKeySize)
        throw std::runtime_error("store: bad key size " +
                                 std::to_string(key.size()));
    Leaf &leaf = loadLeaf(leafIndexFor(key));
    auto pos = std::lower_bound(
        leaf.records.begin(), leaf.records.end(), key,
        [](const auto &rec, std::string_view k) {
            return rec.first < k;
        });
    if (pos != leaf.records.end() && pos->first == key)
        pos->second = std::string(value);
    else
        leaf.records.emplace(pos, std::string(key),
                             std::string(value));
    leaf.dirty = true;
}

bool
WriteTx::erase(std::string_view key)
{
    if (done_)
        throw std::runtime_error("store: erase on spent WriteTx");
    if (rootIndex_.empty() && leaves_.empty())
        return false;
    Leaf &leaf = loadLeaf(leafIndexFor(key));
    auto pos = std::lower_bound(
        leaf.records.begin(), leaf.records.end(), key,
        [](const auto &rec, std::string_view k) {
            return rec.first < k;
        });
    if (pos == leaf.records.end() || pos->first != key)
        return false;
    leaf.records.erase(pos);
    leaf.dirty = true;
    return true;
}

std::optional<std::string>
WriteTx::get(std::string_view key) const
{
    if (rootIndex_.empty() && leaves_.empty())
        return std::nullopt;
    const Leaf &leaf = loadLeaf(leafIndexFor(key));
    for (const auto &[k, v] : leaf.records) {
        if (k == key)
            return v;
        if (k > key)
            break;
    }
    return std::nullopt;
}

void
WriteTx::commit()
{
    if (done_)
        throw std::runtime_error("store: commit on spent WriteTx");
    store_->commitTx(*this);
    done_ = true;
}

// --- the committing machinery ---------------------------------------

std::uint64_t
PageStore::allocRun(std::uint64_t n)
{
    // free_ is kept sorted; find n consecutive ids.
    if (n <= free_.size()) {
        for (std::size_t i = 0; i + n <= free_.size(); ++i) {
            bool ok = true;
            for (std::uint64_t j = 1; j < n; ++j) {
                if (free_[i + j] != free_[i] + j) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                std::uint64_t id = free_[i];
                free_.erase(free_.begin() +
                                static_cast<std::ptrdiff_t>(i),
                            free_.begin() +
                                static_cast<std::ptrdiff_t>(i + n));
                return id;
            }
        }
    }
    std::uint64_t id = allocHigh_;
    allocHigh_ += n;
    return id;
}

void
PageStore::promotePending()
{
    std::uint64_t min_reader =
        readers_.empty() ? UINT64_MAX : *readers_.begin();
    while (!pending_.empty() &&
           pending_.begin()->first <= min_reader) {
        auto &pages = pending_.begin()->second;
        free_.insert(free_.end(), pages.begin(), pages.end());
        pending_.erase(pending_.begin());
    }
    std::sort(free_.begin(), free_.end());
}

void
PageStore::commitTx(WriteTx &tx)
{
    auto commit_t0 = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(stateMu_);
    const std::uint32_t P = meta_.pageSize;

    // Roll the allocator back if anything throws before the meta is
    // published: nothing durable has changed, so the in-memory
    // state must keep describing the old commit.
    std::vector<std::uint64_t> free_backup = free_;
    std::uint64_t alloc_backup = allocHigh_;

    try {
        promotePending();

        // Pages this commit frees (reusable two commits from now).
        std::vector<std::uint64_t> freed;
        auto free_run = [&](std::uint64_t first, std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                freed.push_back(first + i);
        };

        struct Planned
        {
            std::uint64_t page;
            std::vector<unsigned char> bytes;
        };
        std::vector<Planned> writes;

        auto plan_overflow = [&](std::string_view value)
            -> std::uint64_t {
            std::uint64_t n =
                (value.size() + pageHeaderSize + P - 1) / P;
            std::uint64_t id = allocRun(n);
            Planned w;
            w.page = id;
            w.bytes.assign(n * P, 0);
            PageHeader h;
            h.id = id;
            h.flags = PageOverflow;
            h.overflow = static_cast<std::uint32_t>(n - 1);
            encodeHeader(w.bytes.data(), h);
            std::memcpy(w.bytes.data() + pageHeaderSize,
                        value.data(), value.size());
            writes.push_back(std::move(w));
            return id;
        };

        // Encode one dirty leaf's records into as many leaf pages
        // as they need, appending (first key, page) entries.
        std::vector<std::pair<std::string, std::uint64_t>> new_seq;
        auto emit_records =
            [&](const std::vector<
                std::pair<std::string, std::string>> &records) {
                std::size_t i = 0;
                while (i < records.size()) {
                    std::uint64_t id = allocRun(1);
                    Planned w;
                    w.page = id;
                    w.bytes.assign(P, 0);
                    std::size_t pos = pageHeaderSize;
                    std::uint16_t count = 0;
                    std::string first = records[i].first;
                    while (i < records.size()) {
                        const auto &[k, v] = records[i];
                        bool inl =
                            recordSize(k.size(), v.size(), true) <=
                            inlineLimit(P);
                        std::size_t rec_size = recordSize(
                            k.size(), v.size(), inl);
                        if (pos + rec_size > P)
                            break;
                        unsigned char *rec =
                            w.bytes.data() + pos;
                        putU32(rec, static_cast<std::uint32_t>(
                                        k.size()));
                        putU32(rec + 4,
                               static_cast<std::uint32_t>(
                                   v.size()));
                        rec[8] = inl ? 0 : 1;
                        std::memcpy(rec + 9, k.data(), k.size());
                        if (inl) {
                            std::memcpy(rec + 9 + k.size(),
                                        v.data(), v.size());
                        } else {
                            putU64(rec + 9 + k.size(),
                                   plan_overflow(v));
                        }
                        pos += rec_size;
                        ++count;
                        ++i;
                    }
                    PageHeader h;
                    h.id = id;
                    h.flags = PageLeaf;
                    h.count = count;
                    encodeHeader(w.bytes.data(), h);
                    writes.push_back(std::move(w));
                    new_seq.emplace_back(std::move(first), id);
                }
            };

        std::size_t num_leaves = tx.rootIndex_.size();
        if (num_leaves == 0 && !tx.leaves_.empty())
            num_leaves = 1;
        for (std::size_t i = 0; i < num_leaves; ++i) {
            auto it = tx.leaves_.find(i);
            if (it == tx.leaves_.end() || !it->second.dirty) {
                if (i < tx.rootIndex_.size())
                    new_seq.push_back(tx.rootIndex_[i]);
                continue;
            }
            for (const auto &[first, n] : it->second.owned)
                free_run(first, n);
            emit_records(it->second.records);
        }

        // New root directory run.
        std::uint64_t new_root = 0;
        if (!new_seq.empty()) {
            std::size_t size = 8;
            for (const auto &[key, page] : new_seq)
                size += 12 + key.size();
            std::uint64_t n =
                (size + pageHeaderSize + P - 1) / P;
            new_root = allocRun(n);
            Planned w;
            w.page = new_root;
            w.bytes.assign(n * P, 0);
            PageHeader h;
            h.id = new_root;
            h.flags = PageBranch;
            h.overflow = static_cast<std::uint32_t>(n - 1);
            encodeHeader(w.bytes.data(), h);
            unsigned char *data = w.bytes.data() + pageHeaderSize;
            putU64(data, new_seq.size());
            std::size_t pos = 8;
            for (const auto &[key, page] : new_seq) {
                putU64(data + pos, page);
                putU32(data + pos + 8,
                       static_cast<std::uint32_t>(key.size()));
                std::memcpy(data + pos + 12, key.data(),
                            key.size());
                pos += 12 + key.size();
            }
            writes.push_back(std::move(w));
        }
        if (meta_.root != 0) {
            PageHeader h = readHeader(*tx.view_, meta_.root);
            free_run(meta_.root, 1 + h.overflow);
        }
        if (meta_.freelist != 0) {
            PageHeader h = readHeader(*tx.view_, meta_.freelist);
            free_run(meta_.freelist, 1 + h.overflow);
        }

        // Freelist: everything reusable after this commit — the
        // current free set, every pending page, and what this
        // commit just freed. The run is sized before encoding (its
        // own allocation shrinks free_).
        std::uint64_t new_freelist = 0;
        {
            std::size_t pending_total = 0;
            for (const auto &[txid, pages] : pending_)
                pending_total += pages.size();
            std::size_t bound = free_.size() + pending_total +
                                freed.size() + 8;
            std::uint64_t n =
                (8 + bound * 8 + pageHeaderSize + P - 1) / P;
            std::uint64_t id = allocRun(n);
            std::vector<std::uint64_t> content = free_;
            for (const auto &[txid, pages] : pending_)
                content.insert(content.end(), pages.begin(),
                               pages.end());
            content.insert(content.end(), freed.begin(),
                           freed.end());
            std::sort(content.begin(), content.end());
            if (content.empty()) {
                // Nothing to record: release the run again rather
                // than writing an empty freelist.
                free_.push_back(id);
                std::sort(free_.begin(), free_.end());
                if (id + n == allocHigh_) {
                    // (only shrink when it was fresh growth)
                    for (std::uint64_t j = 0; j < n; ++j)
                        free_.pop_back();
                    allocHigh_ = id;
                }
            } else {
                new_freelist = id;
                Planned w;
                w.page = id;
                w.bytes.assign(n * P, 0);
                PageHeader h;
                h.id = id;
                h.flags = PageFreelist;
                h.overflow = static_cast<std::uint32_t>(n - 1);
                encodeHeader(w.bytes.data(), h);
                unsigned char *data =
                    w.bytes.data() + pageHeaderSize;
                putU64(data, content.size());
                for (std::size_t i = 0; i < content.size(); ++i)
                    putU64(data + 8 + i * 8, content[i]);
                writes.push_back(std::move(w));
            }
        }

        std::uint64_t new_num_pages = allocHigh_;

        // Grow the file before touching any page, then write and
        // sync all data pages.
        std::uint64_t needed = new_num_pages * P;
        if (needed > file_->length())
            file_->grow(std::max<std::size_t>(
                needed, file_->length() * 2));
        auto view = file_->view();
        std::uint64_t lo = UINT64_MAX;
        std::uint64_t hi = 0;
        for (const Planned &w : writes) {
            std::memcpy(view->data() + w.page * P,
                        w.bytes.data(), w.bytes.size());
            lo = std::min(lo, w.page * P);
            hi = std::max(hi, w.page * P + w.bytes.size());
        }
        if (hi > lo)
            file_->sync(lo, hi - lo);

        if (failPoint_ == FailPoint::BeforeMetaWrite) {
            failPoint_ = FailPoint::None;
            throw std::runtime_error(
                "store: fail point BeforeMetaWrite");
        }

        // Publish: meta into the alternate slot, then sync it.
        Meta m = meta_;
        m.root = new_root;
        m.freelist = new_freelist;
        m.numPages = new_num_pages;
        m.txid = meta_.txid + 1;
        m.checksum = metaChecksum(m);
        std::uint64_t slot = m.txid % 2;
        unsigned char *p = view->data() + slot * P;
        PageHeader h;
        h.id = slot;
        h.flags = PageMeta;
        encodeHeader(p, h);
        encodeMeta(p + pageHeaderSize, m);

        if (failPoint_ == FailPoint::BeforeMetaSync) {
            failPoint_ = FailPoint::None;
            throw std::runtime_error(
                "store: fail point BeforeMetaSync");
        }
        file_->sync(slot * P, P);

        meta_ = m;
        if (!freed.empty())
            pending_.emplace(m.txid, std::move(freed));
        recordCommit(elapsedUs(commit_t0), writes.size());
    } catch (...) {
        free_ = std::move(free_backup);
        allocHigh_ = alloc_backup;
        throw;
    }
}

void
PageStore::recordLockWait(std::uint64_t us)
{
    std::lock_guard<std::mutex> lock(profileMu_);
    ++profile_.lockAcquisitions;
    profile_.lockWaitUsTotal += us;
}

void
PageStore::recordCommit(std::uint64_t us, std::uint64_t cow_pages)
{
    std::lock_guard<std::mutex> lock(profileMu_);
    ++profile_.commitCount;
    profile_.commitUsTotal += us;
    profile_.pagesWrittenTotal += cow_pages;
}

StoreProfile
PageStore::profile() const
{
    std::lock_guard<std::mutex> lock(profileMu_);
    return profile_;
}

StoreInfo
PageStore::info()
{
    std::lock_guard<std::mutex> lock(stateMu_);
    StoreInfo s;
    s.pageSize = meta_.pageSize;
    s.txid = meta_.txid;
    s.numPages = meta_.numPages;
    s.freePages = free_.size();
    for (const auto &[txid, pages] : pending_)
        s.pendingPages += pages.size();
    s.fileBytes = file_->length();
    auto view = file_->view();
    auto index = decodeRoot(*view, meta_.root);
    s.leafPages = index.size();
    if (meta_.root != 0)
        s.rootRunPages =
            1 + readHeader(*view, meta_.root).overflow;
    for (const auto &[first, leaf] : index)
        s.keys += readHeader(*view, leaf).count;
    return s;
}

} // namespace osp::store

/**
 * @file
 * A growable memory-mapped file for the page store.
 *
 * Two properties the store needs drive the shape of this wrapper:
 *
 *  - *Readers keep their view.* A snapshot-isolated reader holds raw
 *    pointers into the mapping for its whole transaction. Growing
 *    the file therefore never munmap()s the old view: a new, larger
 *    mapping is created and published, while existing transactions
 *    keep a shared_ptr to the view they started with. Both views
 *    map the same file with MAP_SHARED, so pages written through
 *    the new view are coherent in the old one — but copy-on-write
 *    at the store layer guarantees a reader never looks at a page
 *    written after its transaction began.
 *  - *Durability is explicit.* Nothing is guaranteed on disk until
 *    sync() returns; the store orders data-page syncs before the
 *    meta-page sync to get its crash-safety.
 *
 * POSIX only (mmap/ftruncate/msync); the repo's CI targets are
 * Linux. The OS page-size query follows the usual sysconf idiom
 * with a 4 KB fallback.
 *
 * FileLock adds the multi-process arbitration primitive: an
 * flock(2)-held sidecar lockfile with bounded-backoff acquisition
 * and a human-readable holder hint, used by the page store both as
 * an open-lifetime writer gate (exclusive mode) and as a
 * per-transaction gate (shared worker mode). flock locks belong to
 * the open file description, so two opens of the same sidecar
 * conflict even within one process — which is exactly what makes
 * two PageStore handles in one process behave like two processes
 * in tests.
 */

#ifndef OSP_STORE_MMAP_FILE_HH
#define OSP_STORE_MMAP_FILE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace osp::store
{

/** The OS VM page size (sysconf), 4096 on query failure. */
std::uint32_t osDefaultPageSize();

/** One immutable mapping of the file at some length. */
class MappedView
{
  public:
    MappedView(void *base, std::size_t length)
        : base_(base), length_(length)
    {
    }
    ~MappedView();

    MappedView(const MappedView &) = delete;
    MappedView &operator=(const MappedView &) = delete;

    unsigned char *
    data() const
    {
        return static_cast<unsigned char *>(base_);
    }
    std::size_t length() const { return length_; }

  private:
    void *base_;
    std::size_t length_;
};

/** See file comment. */
class MmapFile
{
  public:
    /**
     * Open (creating if absent and not read-only) and map the file.
     * Throws std::runtime_error on any system-call failure.
     *
     * @param min_length grow the file to at least this many bytes
     *                   before mapping (ignored when read-only)
     */
    MmapFile(const std::string &path, bool read_only,
             std::size_t min_length = 0);
    ~MmapFile();

    MmapFile(const MmapFile &) = delete;
    MmapFile &operator=(const MmapFile &) = delete;

    /** The current (newest) view. Hold the returned shared_ptr for
     *  as long as pointers into it are live. */
    std::shared_ptr<MappedView> view() const { return view_; }

    /** Current file length in bytes. */
    std::size_t length() const { return length_; }

    bool readOnly() const { return readOnly_; }
    const std::string &path() const { return path_; }

    /**
     * Extend the file to @p new_length bytes and publish a new view
     * of the full length. Old views stay valid until their last
     * holder drops them. No-op when already at least that long.
     */
    void grow(std::size_t new_length);

    /**
     * Re-stat the file and, when another process has grown it,
     * publish a new full-length view (old views stay mapped, as in
     * grow()). Returns true when the mapping changed. The file
     * never shrinks, so a stale shorter view is the only case.
     */
    bool refresh();

    /** msync a byte range of the newest view to disk (MS_SYNC). */
    void sync(std::size_t offset, std::size_t len);

  private:
    void map();

    std::string path_;
    bool readOnly_;
    int fd_ = -1;
    std::size_t length_ = 0;
    std::shared_ptr<MappedView> view_;
};

/**
 * An flock(2)-based advisory lock on a sidecar file (see file
 * comment). The sidecar is created on construction and never
 * deleted — unlinking a lockfile while another process holds its
 * own descriptor to it would split the lock namespace.
 *
 * While held, the sidecar's content is a one-line holder hint
 * ("pid 1234 (exclusive)") so a contending opener can say *who*
 * holds the store, not just that someone does. The hint is written
 * under the lock and read optimistically (diagnostics only).
 */
class FileLock
{
  public:
    /** Open (creating if absent) the sidecar at @p path. Throws
     *  std::runtime_error on system-call failure. */
    explicit FileLock(const std::string &path);
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /**
     * Acquire the exclusive lock, retrying with bounded exponential
     * backoff (1 ms doubling to 50 ms) until roughly @p wait_ms
     * milliseconds have elapsed; 0 means a single non-blocking
     * attempt. On success the holder hint is rewritten to
     * "pid <pid> (<hint>)". Returns false on timeout.
     */
    bool tryLock(const std::string &hint, long wait_ms);

    /** Release the lock (no-op when not held). */
    void unlock();

    /** Last hint written by any holder ("" when none). Read
     *  without the lock: a diagnostic, not a synchronization. */
    std::string holderHint() const;

  private:
    std::string path_;
    int fd_ = -1;
    bool held_ = false;
};

} // namespace osp::store

#endif // OSP_STORE_MMAP_FILE_HH

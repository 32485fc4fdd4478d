/**
 * @file
 * Pager: fixed-size page I/O over one file, with integrity checks.
 *
 * The pager is the lowest layer of the out-of-core data plane (the
 * Mini-DB pager in SNIPPETS.md is the structural exemplar):
 * open/alloc/read/write/sync over a single page file whose page 0 is a
 * superblock recording the file's format version and page size. Every
 * write stamps the page's checksum; every read verifies magic,
 * self-id, and checksum, so torn writes and bit rot surface as
 * DataCorruption instead of silent bad features. The pager knows page
 * types but not what a page holds: PagedTable lays its tables and
 * their metadata chains out over these pages (paged_table.h).
 *
 * Durability contract (the crash-consistency plane builds on this):
 * I/O is fd-based (pread/pwrite), so a completed Write() is in the OS
 * page cache the moment it returns — it survives a *process* crash in
 * both SyncModes. What survives a *system* crash (power loss, kernel
 * panic) depends on Options::sync_mode:
 *
 *  - SyncMode::kFlush — Sync() asserts the writes were handed to the
 *    kernel but issues no device barrier (the default, so bench
 *    workloads don't pay fsync latency).
 *  - SyncMode::kFsync — Sync() calls fdatasync(2): on return, every
 *    page written before the barrier is on stable storage. This is
 *    the mode the PagedTable commit protocol requires for real
 *    crash safety; the ordered commit (chains → barrier → meta →
 *    barrier) is only as strong as this barrier.
 *
 * Crash injection: each physical read (one ReadRun) gates once on
 * FaultSite::kStorageRead (transient faults retried up to kReadRetries
 * times, sticky ones propagate). Writes gate on kStorageWrite (or
 * kMetaCommit for commit-point writes) and barriers on kStorageSync:
 * when one of those fires the pager *simulates process death at that
 * instant* — the in-flight write is torn (only the first half of the
 * page hits the file), the pager enters a crashed state where every
 * later operation throws IoError, and the destructor skips all
 * flushing. Reopening the file with a fresh Pager is the only way
 * forward, which is exactly the recovery path PagedTable::Open()
 * exercises.
 *
 * Read path: ReadRun() is the one physical read. It reads a run of
 * consecutive pages with one preadv(2) and verifies every page's
 * magic, self-id and checksum; Read() is a run of one. The buffer pool
 * reads a scan's next pages this way on a miss (buffer_pool.h).
 *
 * Observability: each ReadRun() and each write emits one wall-clock
 * kPageRead / kPageWrite trace span (a read span's `pages` attribute
 * is its run length, so the spans' pages sum to PagerStats::reads), so
 * file I/O shows up in the Fig-11-style breakdown next to marshal and
 * scoring time.
 *
 * Thread safety: all methods serialize on an internal mutex (one file
 * descriptor; pread/pwrite are thread-safe but the page-count and
 * crash bookkeeping are not). Concurrency above this layer comes from
 * the BufferPool caching frames in memory.
 */
#ifndef DBSCORE_STORAGE_PAGER_H
#define DBSCORE_STORAGE_PAGER_H

#include <cstdint>
#include <mutex>
#include <string>

#include "dbscore/fault/fault.h"
#include "dbscore/storage/page.h"

namespace dbscore::storage {

/** How strong a barrier Sync() provides (see the file comment). */
enum class SyncMode : std::uint8_t {
    kFlush,  ///< writes reach the kernel; no device barrier
    kFsync,  ///< Sync() = fdatasync(2): real durability barrier
};

/**
 * Format version the superblock records and Open checks before it
 * verifies any page. Version 2 checksums pages with the 4-lane stripe
 * hash (page.h); version 1 files (FNV-1a) open with DataCorruption
 * naming both versions.
 */
inline constexpr std::uint32_t kPageFormatVersion = 2;

/** Most pages one Pager::ReadRun reads. */
inline constexpr std::uint32_t kMaxReadRun = 32;

/** Times a read retries a transient injected fault before it fails. */
inline constexpr int kReadRetries = 2;

/** Counters since the pager was opened. */
struct PagerStats {
    std::uint64_t reads = 0;         ///< pages read (successful runs)
    std::uint64_t writes = 0;        ///< pages written
    std::uint64_t allocs = 0;        ///< pages allocated (appended)
    std::uint64_t read_retries = 0;  ///< injected-fault retries
    std::uint64_t checksum_failures = 0;
    std::uint64_t syncs = 0;         ///< Sync() barriers completed
    std::uint64_t torn_writes = 0;   ///< injected crash-torn writes
};

/** One open page file. */
class Pager {
 public:
    struct Options {
        std::size_t page_size = kDefaultPageSize;
        /** Create (truncate) the file instead of opening it. */
        bool create = false;
        /** Durability barrier strength (see file comment). */
        SyncMode sync_mode = SyncMode::kFlush;
    };

    /**
     * Opens (or creates) the page file at @p path. Creation writes the
     * superblock; opening checks its format version, adopts its page
     * size, then verifies page 0.
     * @throws IoError / DataCorruption (also for another format
     *         version)
     */
    Pager(std::string path, const Options& options);
    ~Pager();

    Pager(const Pager&) = delete;
    Pager& operator=(const Pager&) = delete;

    const std::string& path() const { return path_; }
    std::size_t page_size() const { return page_size_; }
    SyncMode sync_mode() const { return sync_mode_; }

    /** Pages in the file, including the superblock (page 0). */
    std::uint32_t num_pages() const;

    /**
     * Appends a zeroed page of @p type and returns its id. The page is
     * immediately written (with a valid header/checksum) so the file
     * never contains unstamped regions.
     */
    std::uint32_t Alloc(PageType type);

    /**
     * Rewrites an *existing* page in place as a zeroed page of
     * @p type — the recycling path for reclaimed free-list pages,
     * whose on-disk bytes may be torn garbage from a crashed commit
     * and therefore must be re-stamped without ever being read.
     * @throws InvalidArgument on an out-of-range id
     */
    void Reinit(std::uint32_t page_id, PageType type);

    /**
     * Reads pages [@p first, @p first + @p count) into @p bufs[0] ..
     * @p bufs[count - 1] (page_size() bytes each) with one vectored
     * read, and verifies every page's magic, self-id, and checksum.
     * The run succeeds or fails whole: PagerStats::reads rises by
     * @p count only on success.
     * @throws InvalidArgument when @p count is 0 or above kMaxReadRun,
     *         or the run passes the end of the file
     * @throws DataCorruption naming the first page that fails its
     *         integrity check (torn write, bit rot)
     * @throws fault::FaultInjected when an injected sticky fault holds
     *         or transient retries are exhausted
     * @throws IoError after an injected crash (reopen to recover)
     */
    void ReadRun(std::uint32_t first, std::uint32_t count,
                 std::uint8_t* const* bufs);

    /** ReadRun of the one page @p page_id into @p buf. */
    void Read(std::uint32_t page_id, std::uint8_t* buf)
    {
        ReadRun(page_id, 1, &buf);
    }

    /**
     * Stamps the checksum on @p buf (whose header must already carry
     * the right magic/id/type/payload_bytes) and writes it to disk.
     * @p site names the crash-injection gate: ordinary page writes use
     * kStorageWrite; the PagedTable commit point passes kMetaCommit so
     * a chaos plan can kill precisely the meta-slot write.
     * @throws InvalidArgument if the header id disagrees with @p page_id
     * @throws fault::FaultInjected when a crash plan fires (the write
     *         is torn and the pager is dead until reopened)
     */
    void Write(std::uint32_t page_id, std::uint8_t* buf,
               fault::FaultSite site = fault::FaultSite::kStorageWrite);

    /**
     * Durability barrier per Options::sync_mode (see file comment).
     * Always a kStorageSync crash-injection gate, whatever the mode.
     */
    void Sync();

    /** True after an injected crash killed this pager. */
    bool crashed() const;

    PagerStats stats() const;
    void ResetStats();

 private:
    void WriteLocked(std::uint32_t page_id, std::uint8_t* buf,
                     fault::FaultSite site);
    void ThrowIfCrashedLocked() const;
    /** preadv the @p count full pages from @p first (no integrity
     * logic). */
    void RawReadRunLocked(std::uint32_t first, std::uint32_t count,
                          std::uint8_t* const* bufs);
    /** pwrite the first @p len bytes of page @p page_id. */
    void RawWriteLocked(std::uint32_t page_id, const std::uint8_t* buf,
                        std::size_t len);

    std::string path_;
    std::size_t page_size_;
    SyncMode sync_mode_;
    mutable std::mutex mutex_;
    int fd_ = -1;
    bool crashed_ = false;
    std::uint32_t num_pages_ = 0;
    PagerStats stats_;
};

}  // namespace dbscore::storage

#endif  // DBSCORE_STORAGE_PAGER_H

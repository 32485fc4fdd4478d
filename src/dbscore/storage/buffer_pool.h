/**
 * @file
 * BufferPool: a fixed-capacity LRU cache of page frames over a Pager.
 *
 * The pool is what turns the page file into a data plane the scoring
 * pipeline can stream from: Pin(page_id) returns a PageHandle whose
 * frame memory stays valid (and is never evicted or overwritten) for
 * the handle's lifetime, so the zero-copy RowBlock/RowView machinery
 * from PR 3 can point straight into pool frames. Unpinned frames form
 * an LRU; filling a frame for a miss evicts the least-recently-used
 * unpinned frame, writing it back first when dirty.
 *
 * Invariants (tested in tests/storage_test.cc):
 *  - a pinned frame is never evicted; pinning more distinct pages than
 *    the capacity throws CapacityError instead of corrupting a frame;
 *  - eviction order among unpinned frames is least-recently-pinned
 *    first;
 *  - dirty frames are written back (checksummed) before their frame is
 *    reused, so a read-after-evict round-trips through the file.
 *
 * Frame memory is allocated once at construction and never moves, so
 * pointers held by live PageHandles (and the RowViews aliasing them)
 * stay stable without per-pin allocation.
 *
 * Victim choice is O(1): used frames sit on an intrusive list ordered
 * by last pin (oldest at the head), unused ones on a free stack. A
 * miss takes a free frame, else the first unpinned frame from the
 * head; only the few frames still pinned at the head are skipped.
 *
 * Read-ahead: a caller that will pin the next pages of the file in
 * order (a FeatureStream) says so with Pin's run length. A miss then
 * fills the requested page and the following ones with one
 * Pager::ReadRun: at most kMaxReadRun pages and an eighth of the pool,
 * stopping at a page already resident or at the first page no clean,
 * unpinned frame is left for (a read-ahead page never evicts a dirty
 * frame, and it shortens the run instead of throwing CapacityError).
 * Only the requested page is pinned; the rest stay resident and
 * unpinned. The first pin of a read-ahead page counts as the miss its
 * read was, so hits + misses equals pins and, for one scan, misses
 * equals the pages read. A run whose read fails leaves none of its
 * pages resident, and the requested page is then read alone: a bad
 * read-ahead page fails only the pin that asks for it, and an injected
 * fault on the run's one read gate only the pin that read the run.
 * Pools under 16 frames read one page per miss.
 *
 * Thread safety: all bookkeeping is under one mutex, and so is a
 * miss's read — a whole run's, up to kMaxReadRun pages, during which
 * every other Pin waits, hits included (the latency this adds to
 * concurrent paged statements was not measured; see ROADMAP item 1).
 * Frame *payload* access happens outside the lock, which is safe
 * because a frame's bytes only change while its page is being
 * (re)filled — and a frame being filled is pinned by the filling
 * thread. Concurrent readers of a shared pinned page are safe;
 * concurrent writers must coordinate externally (the paged-table
 * writer is single-threaded).
 *
 * Observability: each miss that reads emits a wall-clock kBufferPool
 * span with the pages it read (so over one scan the spans' pages sum to
 * the misses) and the frames it evicted; the underlying reads and
 * write-backs emit kPageRead/kPageWrite from the pager.
 */
#ifndef DBSCORE_STORAGE_BUFFER_POOL_H
#define DBSCORE_STORAGE_BUFFER_POOL_H

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dbscore/storage/pager.h"

namespace dbscore::storage {

class BufferPool;

/** Counters since construction (or the last ResetStats). */
struct BufferPoolStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t write_backs = 0;
    /** Dirty-frame flushes that failed (teardown included) — dirty
     * data that never reached the file. Nonzero after a crash. */
    std::uint64_t flush_failures = 0;

    double
    HitRatio() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * RAII pin on one pool frame. Movable, not copyable; unpins on
 * destruction. data()/payload() stay valid while the handle (or any
 * shared_ptr keepalive wrapping it) lives.
 */
class PageHandle {
 public:
    PageHandle() = default;
    PageHandle(PageHandle&& other) noexcept;
    PageHandle& operator=(PageHandle&& other) noexcept;
    ~PageHandle();

    PageHandle(const PageHandle&) = delete;
    PageHandle& operator=(const PageHandle&) = delete;

    bool valid() const { return pool_ != nullptr; }
    std::uint32_t page_id() const;

    /** Whole frame, header included. */
    const std::uint8_t* data() const;

    /** Payload bytes after the page header. */
    const std::uint8_t* payload() const;

    /**
     * Mutable access; marks the frame dirty so eviction (or FlushAll)
     * writes it back.
     */
    std::uint8_t* MutableData();
    std::uint8_t* MutablePayload();

    /** Explicitly releases the pin (idempotent). */
    void Release();

 private:
    friend class BufferPool;
    PageHandle(BufferPool* pool, std::size_t frame) :
        pool_(pool), frame_(frame)
    {
    }

    BufferPool* pool_ = nullptr;
    std::size_t frame_ = 0;
};

/** A fixed set of in-memory page frames over one Pager. */
class BufferPool {
 public:
    struct Options {
        /** Frames in the pool (the working-set budget, in pages). */
        std::size_t capacity_pages = 64;
    };

    BufferPool(Pager& pager, const Options& options);

    /** Flushes dirty frames (best effort) on teardown. */
    ~BufferPool();

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    Pager& pager() { return pager_; }
    std::size_t capacity() const { return frames_.size(); }

    /**
     * Pins page @p page_id, reading it into a frame on a miss. @p run
     * says the caller will pin pages page_id + 1 .. page_id + run - 1
     * next: a miss reads up to that many pages at once and leaves all
     * but the first resident and unpinned (see the file comment).
     * @throws CapacityError when every frame is pinned
     * @throws DataCorruption / IoError / fault::FaultInjected from the
     *         read of page @p page_id
     */
    PageHandle Pin(std::uint32_t page_id, std::uint32_t run = 1);

    /** Writes every dirty frame back and syncs the pager. A failed
     * write-back counts in stats().flush_failures before rethrowing. */
    void FlushAll();

    /**
     * Drops page @p page_id from the pool without writing it back —
     * the page's identity on disk is about to change (a reclaimed
     * free page being re-stamped via Pager::Reinit), so any resident
     * frame is stale by definition. The page must not be pinned.
     */
    void Invalidate(std::uint32_t page_id);

    /** Pages currently resident (pinned or cached). */
    std::size_t Resident() const;

    /** Frames currently pinned (for tests / stats). */
    std::size_t PinnedFrames() const;

    BufferPoolStats stats() const;
    void ResetStats();

 private:
    friend class PageHandle;

    /** End of the LRU list. */
    static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

    struct Frame {
        std::vector<std::uint8_t> data;
        std::uint32_t page_id = 0;
        int pins = 0;
        bool used = false;
        bool dirty = false;
        /** Read ahead by a run and not pinned since. */
        bool read_ahead = false;
        /** LRU list links (used frames only), toward older / newer. */
        std::size_t older = kNoFrame;
        std::size_t newer = kNoFrame;
    };

    void Unpin(std::size_t frame_index);
    void MarkDirty(std::size_t frame_index);
    /** Picks a frame for @p page_id, evicting if needed (locked). A
     * @p read_ahead page gets kNoFrame where another would evict a
     * dirty frame or throw CapacityError. */
    std::size_t AcquireFrameLocked(std::uint32_t page_id, bool read_ahead);
    /** Reads @p page_id and up to @p run - 1 following pages into
     * frames, sets @p frame to the pinned frame of @p page_id and
     * returns the pages read. */
    std::uint32_t FillLocked(std::uint32_t page_id, std::uint32_t run,
                             std::size_t& frame);
    /** Moves used frame @p f to the newest end of the LRU list. */
    void TouchLocked(std::size_t f);
    void UnlinkLocked(std::size_t f);
    /** Unlinks frame @p f and pushes it on the free stack. */
    void ReleaseFrameLocked(std::size_t f);

    Pager& pager_;
    mutable std::mutex mutex_;
    std::vector<Frame> frames_;
    std::vector<std::size_t> free_frames_;
    std::size_t oldest_ = kNoFrame;
    std::size_t newest_ = kNoFrame;
    std::unordered_map<std::uint32_t, std::size_t> resident_;
    BufferPoolStats stats_;
};

}  // namespace dbscore::storage

#endif  // DBSCORE_STORAGE_BUFFER_POOL_H

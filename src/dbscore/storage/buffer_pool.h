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
 * Thread safety: all bookkeeping is under one mutex; frame *payload*
 * access happens outside the lock, which is safe because a frame's
 * bytes only change while its page is being (re)filled — and a frame
 * being filled is pinned by exactly the filling thread. Concurrent
 * readers of a shared pinned page are safe; concurrent writers must
 * coordinate externally (the paged-table writer is single-threaded).
 *
 * Observability: misses emit wall-clock kBufferPool trace spans (with
 * the evicted page when one was displaced); the underlying reads and
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
     * Pins page @p page_id, reading it into a frame on a miss.
     * @throws CapacityError when every frame is pinned
     * @throws DataCorruption / IoError / fault::FaultInjected from the
     *         underlying read
     */
    PageHandle Pin(std::uint32_t page_id);

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
        /** LRU list links (used frames only), toward older / newer. */
        std::size_t older = kNoFrame;
        std::size_t newer = kNoFrame;
    };

    void Unpin(std::size_t frame_index);
    void MarkDirty(std::size_t frame_index);
    /** Picks a frame for @p page_id, evicting if needed (locked). */
    std::size_t AcquireFrameLocked(std::uint32_t page_id);
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

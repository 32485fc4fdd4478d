#include "dbscore/storage/buffer_pool.h"

#include <algorithm>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/trace/trace.h"

namespace dbscore::storage {

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_)
{
    other.pool_ = nullptr;
}

PageHandle&
PageHandle::operator=(PageHandle&& other) noexcept
{
    if (this != &other) {
        Release();
        pool_ = other.pool_;
        frame_ = other.frame_;
        other.pool_ = nullptr;
    }
    return *this;
}

PageHandle::~PageHandle() { Release(); }

void
PageHandle::Release()
{
    if (pool_ != nullptr) {
        pool_->Unpin(frame_);
        pool_ = nullptr;
    }
}

std::uint32_t
PageHandle::page_id() const
{
    DBS_ASSERT(pool_ != nullptr);
    return pool_->frames_[frame_].page_id;
}

const std::uint8_t*
PageHandle::data() const
{
    DBS_ASSERT(pool_ != nullptr);
    return pool_->frames_[frame_].data.data();
}

const std::uint8_t*
PageHandle::payload() const
{
    return data() + kPageHeaderSize;
}

std::uint8_t*
PageHandle::MutableData()
{
    DBS_ASSERT(pool_ != nullptr);
    pool_->MarkDirty(frame_);
    return pool_->frames_[frame_].data.data();
}

std::uint8_t*
PageHandle::MutablePayload()
{
    return MutableData() + kPageHeaderSize;
}

BufferPool::BufferPool(Pager& pager, const Options& options) : pager_(pager)
{
    if (options.capacity_pages == 0) {
        throw InvalidArgument("buffer pool: capacity must be at least 1 page");
    }
    frames_.resize(options.capacity_pages);
    // Frame storage is allocated up front and never resized, so frame
    // addresses stay stable for the lifetime of the pool — live
    // PageHandles (and RowViews aliasing them) never see memory move.
    for (Frame& frame : frames_) {
        frame.data.assign(pager_.page_size(), 0);
    }
    free_frames_.reserve(frames_.size());
    for (std::size_t f = frames_.size(); f-- > 0;) {
        free_frames_.push_back(f);  // frame 0 on top
    }
    resident_.reserve(options.capacity_pages);
}

BufferPool::~BufferPool()
{
    // Teardown flush is best effort — Flush()/Sync() on the owning
    // table is the durable path — but a failure here is dirty data
    // that never reached the file, so it is counted (and traced) per
    // frame instead of being swallowed whole: after a crashed pager
    // every write-back fails and flush_failures tells the operator
    // how many pages of work were lost.
    std::uint64_t failures = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Frame& frame : frames_) {
            if (frame.used && frame.dirty) {
                try {
                    pager_.Write(frame.page_id, frame.data.data());
                    frame.dirty = false;
                    ++stats_.write_backs;
                } catch (...) {
                    ++stats_.flush_failures;
                    ++failures;
                }
            }
        }
        if (failures == 0) {
            try {
                pager_.Sync();
            } catch (...) {
                ++stats_.flush_failures;
                ++failures;
            }
        }
    }
    if (failures > 0) {
        trace::TraceCollector& tracer = trace::TraceCollector::Get();
        const double now = tracer.NowWallMicros();
        tracer.EmitWall(trace::StageKind::kBufferPool, "flush-failure",
                        trace::TraceCollector::Current(), now, 0.0,
                        {{"frames_lost", static_cast<double>(failures)}});
    }
}

void
BufferPool::UnlinkLocked(std::size_t f)
{
    Frame& frame = frames_[f];
    (frame.older == kNoFrame ? oldest_ : frames_[frame.older].newer) =
        frame.newer;
    (frame.newer == kNoFrame ? newest_ : frames_[frame.newer].older) =
        frame.older;
    frame.older = kNoFrame;
    frame.newer = kNoFrame;
}

void
BufferPool::TouchLocked(std::size_t f)
{
    if (newest_ == f) {
        return;
    }
    Frame& frame = frames_[f];
    if (frame.older != kNoFrame || oldest_ == f) {
        UnlinkLocked(f);
    }
    frame.older = newest_;
    (newest_ == kNoFrame ? oldest_ : frames_[newest_].newer) = f;
    newest_ = f;
}

void
BufferPool::ReleaseFrameLocked(std::size_t f)
{
    UnlinkLocked(f);
    frames_[f].used = false;
    frames_[f].dirty = false;
    frames_[f].read_ahead = false;
    free_frames_.push_back(f);
}

std::size_t
BufferPool::AcquireFrameLocked(std::uint32_t page_id, bool read_ahead)
{
    // A free frame if there is one, else the least-recently-pinned
    // unpinned frame: walk from the oldest end past frames still
    // pinned there (a pin moves its frame to the newest end, so these
    // are only pins held across many later pins — a few at most).
    std::size_t victim = kNoFrame;
    if (!free_frames_.empty()) {
        victim = free_frames_.back();
        free_frames_.pop_back();
    } else {
        for (std::size_t f = oldest_; f != kNoFrame; f = frames_[f].newer) {
            if (frames_[f].pins == 0) {
                victim = f;
                break;
            }
        }
        // A read-ahead page takes a clean unpinned frame or none: it
        // never fails its pin or writes a page back.
        if (read_ahead && (victim == kNoFrame || frames_[victim].dirty)) {
            return kNoFrame;
        }
        if (victim == kNoFrame) {
            throw CapacityError(
                StrFormat("buffer pool: all %zu frames pinned while "
                          "pinning page %u — pool too small for the "
                          "working set",
                          frames_.size(), page_id));
        }
        Frame& frame = frames_[victim];
        if (frame.dirty) {
            pager_.Write(frame.page_id, frame.data.data());
            frame.dirty = false;
            ++stats_.write_backs;
        }
        resident_.erase(frame.page_id);
        ++stats_.evictions;
    }
    Frame& frame = frames_[victim];
    frame.used = true;
    frame.dirty = false;
    frame.read_ahead = read_ahead;
    frame.page_id = page_id;
    resident_[page_id] = victim;
    TouchLocked(victim);
    return victim;
}

std::uint32_t
BufferPool::FillLocked(std::uint32_t page_id, std::uint32_t run,
                       std::size_t& frame)
{
    // The run: the requested page plus the following pages that are
    // not resident, while a clean frame is free to take. Each frame is
    // pinned before the read, so neither a concurrent Pin() nor this
    // run's own victim search can evict or alias it mid-fill.
    std::size_t filled[kMaxReadRun];
    std::uint8_t* bufs[kMaxReadRun];
    filled[0] = AcquireFrameLocked(page_id, false);
    std::uint32_t count = 1;
    for (;;) {
        ++frames_[filled[count - 1]].pins;
        bufs[count - 1] = frames_[filled[count - 1]].data.data();
        if (count == run || resident_.contains(page_id + count)) {
            break;
        }
        const std::size_t f = AcquireFrameLocked(page_id + count, true);
        if (f == kNoFrame) {
            break;
        }
        filled[count++] = f;
    }
    try {
        pager_.ReadRun(page_id, count, bufs);
    } catch (...) {
        // Failed fill: the frames hold garbage; drop them from the
        // pool entirely so a retry re-reads instead of serving junk.
        for (std::uint32_t i = 0; i < count; ++i) {
            --frames_[filled[i]].pins;
            resident_.erase(page_id + i);
            ReleaseFrameLocked(filled[i]);
        }
        if (count == 1) {
            throw;
        }
        // A read-ahead page must never fail the pin that read it ahead:
        // the requested page alone decides.
        return FillLocked(page_id, 1, frame);
    }
    for (std::uint32_t i = 1; i < count; ++i) {
        --frames_[filled[i]].pins;
    }
    frame = filled[0];
    return count;
}

PageHandle
BufferPool::Pin(std::uint32_t page_id, std::uint32_t run)
{
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const double wall_start = tracer.NowWallMicros();

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = resident_.find(page_id);
    if (it != resident_.end()) {
        Frame& frame = frames_[it->second];
        ++frame.pins;
        TouchLocked(it->second);
        // The first pin of a page read ahead is the miss whose read it
        // shared, so misses still count the pages read.
        if (frame.read_ahead) {
            frame.read_ahead = false;
            ++stats_.misses;
        } else {
            ++stats_.hits;
        }
        return PageHandle(this, it->second);
    }

    ++stats_.misses;
    const std::uint64_t evictions_before = stats_.evictions;
    // Runs of at most an eighth of the pool (one page under 16 frames).
    const auto cap = static_cast<std::uint32_t>(std::clamp<std::size_t>(
        frames_.size() / 8, 1, kMaxReadRun));
    run = std::clamp(run, 1U, cap);
    std::size_t frame_index = 0;
    const std::uint32_t pages = FillLocked(page_id, run, frame_index);
    tracer.EmitWall(trace::StageKind::kBufferPool, "pool-miss",
                    trace::TraceCollector::Current(), wall_start,
                    tracer.NowWallMicros() - wall_start,
                    {{"page_id", static_cast<double>(page_id)},
                     {"pages", static_cast<double>(pages)},
                     {"evicted",
                      static_cast<double>(stats_.evictions -
                                          evictions_before)}});
    return PageHandle(this, frame_index);
}

void
BufferPool::Unpin(std::size_t frame_index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Frame& frame = frames_[frame_index];
    DBS_ASSERT_MSG(frame.pins > 0, "unpin of an unpinned frame");
    --frame.pins;
}

void
BufferPool::MarkDirty(std::size_t frame_index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Frame& frame = frames_[frame_index];
    DBS_ASSERT_MSG(frame.pins > 0, "dirtying an unpinned frame");
    frame.dirty = true;
}

void
BufferPool::FlushAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Frame& frame : frames_) {
        if (frame.used && frame.dirty) {
            try {
                pager_.Write(frame.page_id, frame.data.data());
            } catch (...) {
                ++stats_.flush_failures;
                throw;
            }
            frame.dirty = false;
            ++stats_.write_backs;
        }
    }
    pager_.Sync();
}

void
BufferPool::Invalidate(std::uint32_t page_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = resident_.find(page_id);
    if (it == resident_.end()) {
        return;
    }
    const std::size_t f = it->second;
    DBS_ASSERT_MSG(frames_[f].pins == 0, "invalidating a pinned page");
    resident_.erase(it);
    ReleaseFrameLocked(f);
}

std::size_t
BufferPool::Resident() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return resident_.size();
}

std::size_t
BufferPool::PinnedFrames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t pinned = 0;
    for (const Frame& frame : frames_) {
        if (frame.used && frame.pins > 0) {
            ++pinned;
        }
    }
    return pinned;
}

BufferPoolStats
BufferPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
BufferPool::ResetStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = BufferPoolStats{};
}

}  // namespace dbscore::storage

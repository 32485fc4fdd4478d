#include "dbscore/storage/pager.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/trace/trace.h"

namespace dbscore::storage {

namespace {

/** Superblock payload ("DBSB", format version, page size). */
struct Superblock {
    std::uint32_t magic = 0x44425342u;
    std::uint32_t version = kPageFormatVersion;
    std::uint32_t page_size = 0;
};

constexpr std::uint32_t kSuperblockMagic = 0x44425342u;

}  // namespace

Pager::Pager(std::string path, const Options& options)
    : path_(std::move(path)),
      page_size_(options.page_size),
      sync_mode_(options.sync_mode)
{
    if (options.create) {
        if (page_size_ < kMinPageSize) {
            throw InvalidArgument(
                StrFormat("pager %s: page size %zu below minimum %zu",
                          path_.c_str(), page_size_, kMinPageSize));
        }
        fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
        if (fd_ < 0) {
            throw IoError("pager: cannot create '" + path_ + "': " +
                          std::strerror(errno));
        }
        // Page 0: the superblock.
        std::vector<std::uint8_t> page(page_size_);
        InitPage(page.data(), page_size_, 0, PageType::kSuperblock);
        Superblock sb;
        sb.page_size = static_cast<std::uint32_t>(page_size_);
        HeaderOf(page.data())->payload_bytes = sizeof(Superblock);
        std::memcpy(PayloadOf(page.data()), &sb, sizeof(sb));
        num_pages_ = 1;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            WriteLocked(0, page.data(), fault::FaultSite::kStorageWrite);
        }
        stats_ = PagerStats{};  // creation I/O is not workload I/O
        return;
    }

    fd_ = ::open(path_.c_str(), O_RDWR);
    if (fd_ < 0) {
        throw IoError("pager: cannot open '" + path_ + "': " +
                      std::strerror(errno));
    }
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
        throw IoError("pager: cannot size '" + path_ + "'");
    }
    const auto file_bytes = static_cast<std::uint64_t>(end);
    if (file_bytes < kMinPageSize) {
        throw DataCorruption("pager: '" + path_ +
                             "' is too small to hold a superblock");
    }
    // Bootstrap: read the header + superblock at the minimum page size
    // to learn the file's real page size, then re-check.
    std::vector<std::uint8_t> boot(kMinPageSize);
    if (::pread(fd_, boot.data(), boot.size(), 0) !=
        static_cast<ssize_t>(boot.size())) {
        throw IoError("pager: short read of superblock in '" + path_ + "'");
    }
    const PageHeader* header = HeaderOf(boot.data());
    Superblock sb;
    std::memcpy(&sb, PayloadOf(boot.data()), sizeof(sb));
    if (header->magic != kPageMagic || sb.magic != kSuperblockMagic) {
        throw DataCorruption("pager: '" + path_ +
                             "' is not a dbscore page file");
    }
    // Before any checksum: a file in another format would otherwise
    // fail page 0's integrity check, which reads like corruption.
    if (sb.version != kPageFormatVersion) {
        throw DataCorruption(
            StrFormat("pager %s: page-file format version %u, but this "
                      "build reads version %u",
                      path_.c_str(), sb.version, kPageFormatVersion));
    }
    page_size_ = sb.page_size;
    if (page_size_ < kMinPageSize || file_bytes < page_size_) {
        throw DataCorruption(
            StrFormat("pager %s: superblock page size %zu is invalid "
                      "for a %llu-byte file",
                      path_.c_str(), page_size_,
                      static_cast<unsigned long long>(file_bytes)));
    }
    // A crash can tear the write that was *extending* the file,
    // leaving a partial page past the last full one. That page was
    // never reachable from a committed generation (data is barriered
    // before the commit point), so drop it rather than reject the
    // file: count it as a torn write and truncate to the last full
    // page boundary.
    num_pages_ = static_cast<std::uint32_t>(file_bytes / page_size_);
    const bool torn_tail = file_bytes % page_size_ != 0;
    if (torn_tail &&
        ::ftruncate(fd_, static_cast<off_t>(num_pages_) *
                             static_cast<off_t>(page_size_)) != 0) {
        throw IoError("pager: cannot truncate torn tail of '" + path_ +
                      "': " + std::strerror(errno));
    }
    // Full integrity check of page 0 at the real page size.
    std::vector<std::uint8_t> page(page_size_);
    Read(0, page.data());
    stats_ = PagerStats{};
    stats_.torn_writes = torn_tail ? 1 : 0;
}

Pager::~Pager()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        // Writes went straight to the fd; nothing buffered to flush.
        // After a simulated crash, close without any further I/O —
        // completing the interrupted commit here would undo the crash.
        ::close(fd_);
        fd_ = -1;
    }
}

void
Pager::ThrowIfCrashedLocked() const
{
    if (crashed_) {
        throw IoError("pager '" + path_ +
                      "': simulated crash — reopen the file to recover");
    }
}

bool
Pager::crashed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return crashed_;
}

std::uint32_t
Pager::num_pages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return num_pages_;
}

void
Pager::RawReadRunLocked(std::uint32_t first, std::uint32_t count,
                        std::uint8_t* const* bufs)
{
    iovec iov[kMaxReadRun];
    for (std::uint32_t i = 0; i < count; ++i) {
        iov[i] = {bufs[i], page_size_};
    }
    const auto offset = static_cast<off_t>(
        static_cast<std::uint64_t>(first) * page_size_);
    const std::size_t total = count * page_size_;
    std::size_t done = 0;
    std::uint32_t next = 0;  // first iovec not yet filled
    while (done < total) {
        const ssize_t n =
            ::preadv(fd_, iov + next, static_cast<int>(count - next),
                     offset + static_cast<off_t>(done));
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            throw IoError(StrFormat("pager %s: short read of pages %u-%u",
                                    path_.c_str(), first,
                                    first + count - 1));
        }
        done += static_cast<std::size_t>(n);
        // Skip the filled iovecs and trim a partly filled one.
        auto left = static_cast<std::size_t>(n);
        while (left > 0 && left >= iov[next].iov_len) {
            left -= iov[next++].iov_len;
        }
        if (left > 0) {
            iov[next].iov_base = static_cast<std::uint8_t*>(
                                     iov[next].iov_base) + left;
            iov[next].iov_len -= left;
        }
    }
}

void
Pager::RawWriteLocked(std::uint32_t page_id, const std::uint8_t* buf,
                      std::size_t len)
{
    const auto offset = static_cast<off_t>(
        static_cast<std::uint64_t>(page_id) * page_size_);
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::pwrite(fd_, buf + done, len - done,
                                   offset + static_cast<off_t>(done));
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            throw IoError(StrFormat("pager %s: short write of page %u: %s",
                                    path_.c_str(), page_id,
                                    std::strerror(errno)));
        }
        done += static_cast<std::size_t>(n);
    }
}

std::uint32_t
Pager::Alloc(PageType type)
{
    std::vector<std::uint8_t> page(page_size_);
    std::lock_guard<std::mutex> lock(mutex_);
    ThrowIfCrashedLocked();
    const std::uint32_t id = num_pages_;
    InitPage(page.data(), page_size_, id, type);
    WriteLocked(id, page.data(), fault::FaultSite::kStorageWrite);
    ++num_pages_;
    ++stats_.allocs;
    return id;
}

void
Pager::Reinit(std::uint32_t page_id, PageType type)
{
    std::vector<std::uint8_t> page(page_size_);
    std::lock_guard<std::mutex> lock(mutex_);
    ThrowIfCrashedLocked();
    if (page_id == 0 || page_id >= num_pages_) {
        throw InvalidArgument(
            StrFormat("pager %s: reinit of page %u out of range "
                      "(%u pages)",
                      path_.c_str(), page_id, num_pages_));
    }
    InitPage(page.data(), page_size_, page_id, type);
    WriteLocked(page_id, page.data(), fault::FaultSite::kStorageWrite);
}

void
Pager::ReadRun(std::uint32_t first, std::uint32_t count,
               std::uint8_t* const* bufs)
{
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const double wall_start = tracer.NowWallMicros();
    fault::FaultInjector& injector = fault::FaultInjector::Get();

    std::lock_guard<std::mutex> lock(mutex_);
    ThrowIfCrashedLocked();
    if (count == 0 || count > kMaxReadRun) {
        throw InvalidArgument(
            StrFormat("pager %s: read run of %u pages (1 to %u allowed)",
                      path_.c_str(), count, kMaxReadRun));
    }
    if (first >= num_pages_ || count > num_pages_ - first) {
        throw InvalidArgument(
            StrFormat("pager %s: read of pages %u-%u past end (%u pages)",
                      path_.c_str(), first, first + count - 1,
                      num_pages_));
    }
    // The physical read is a fault-injection site: transient injected
    // faults model a flaky I/O path and are retried; sticky faults
    // model a dead device and propagate.
    for (int attempt = 0;; ++attempt) {
        if (injector.active()) {
            try {
                injector.Check(fault::FaultSite::kStorageRead);
            } catch (const fault::FaultInjected& fault) {
                tracer.EmitWall(
                    trace::StageKind::kFault, "storage-read",
                    trace::TraceCollector::Current(), wall_start,
                    tracer.NowWallMicros() - wall_start,
                    {{"page_id", static_cast<double>(first)}});
                if (fault.sticky() || attempt >= kReadRetries) {
                    throw;
                }
                ++stats_.read_retries;
                continue;
            }
        }
        break;
    }
    RawReadRunLocked(first, count, bufs);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t page_id = first + i;
        const PageHeader* header = HeaderOf(bufs[i]);
        const std::uint64_t expected =
            ComputePageChecksum(bufs[i], page_size_);
        if (header->magic != kPageMagic || header->page_id != page_id ||
            header->checksum != expected) {
            ++stats_.checksum_failures;
            throw DataCorruption(
                StrFormat("pager %s: page %u failed integrity check "
                          "(magic %#x, self-id %u, checksum %llx vs %llx) — "
                          "torn write or corruption",
                          path_.c_str(), page_id, header->magic,
                          header->page_id,
                          static_cast<unsigned long long>(header->checksum),
                          static_cast<unsigned long long>(expected)));
        }
    }
    stats_.reads += count;
    tracer.EmitWall(trace::StageKind::kPageRead, "page-read",
                    trace::TraceCollector::Current(), wall_start,
                    tracer.NowWallMicros() - wall_start,
                    {{"page_id", static_cast<double>(first)},
                     {"pages", static_cast<double>(count)},
                     {"bytes", static_cast<double>(count * page_size_)}});
}

void
Pager::Write(std::uint32_t page_id, std::uint8_t* buf,
             fault::FaultSite site)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThrowIfCrashedLocked();
    if (page_id >= num_pages_) {
        throw InvalidArgument(
            StrFormat("pager %s: write of page %u past end (%u pages)",
                      path_.c_str(), page_id, num_pages_));
    }
    WriteLocked(page_id, buf, site);
}

void
Pager::WriteLocked(std::uint32_t page_id, std::uint8_t* buf,
                   fault::FaultSite site)
{
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const double wall_start = tracer.NowWallMicros();
    PageHeader* header = HeaderOf(buf);
    if (header->page_id != page_id || header->magic != kPageMagic) {
        throw InvalidArgument(
            StrFormat("pager %s: buffer header (id %u) does not match "
                      "write target page %u",
                      path_.c_str(), header->page_id, page_id));
    }
    header->checksum = 0;
    header->checksum = ComputePageChecksum(buf, page_size_);
    // Crash point: a firing kStorageWrite/kMetaCommit trigger models
    // the process dying mid-write — only the first half of the page
    // reaches the file, and within that prefix the header's checksum
    // sector is garbled (sectors land in any order, so the checksum
    // need not be the part that survived). Garbling it keeps the tear
    // deterministic: without it, a page whose live payload fits the
    // written prefix — a meta slot, say — would checksum clean against
    // a stale-but-identical tail and silently complete the commit.
    // The pager is dead until the file is reopened.
    fault::FaultInjector& injector = fault::FaultInjector::Get();
    if (injector.active()) {
        try {
            injector.Check(site);
        } catch (const fault::FaultInjected&) {
            header->checksum ^= 0xDEADBEEFDEADBEEFull;
            RawWriteLocked(page_id, buf, page_size_ / 2);
            crashed_ = true;
            ++stats_.torn_writes;
            tracer.EmitWall(trace::StageKind::kFault,
                            fault::FaultSiteName(site),
                            trace::TraceCollector::Current(), wall_start,
                            tracer.NowWallMicros() - wall_start,
                            {{"page_id", static_cast<double>(page_id)}});
            throw;
        }
    }
    RawWriteLocked(page_id, buf, page_size_);
    ++stats_.writes;
    tracer.EmitWall(trace::StageKind::kPageWrite, "page-write",
                    trace::TraceCollector::Current(), wall_start,
                    tracer.NowWallMicros() - wall_start,
                    {{"page_id", static_cast<double>(page_id)},
                     {"bytes", static_cast<double>(page_size_)}});
}

void
Pager::Sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ThrowIfCrashedLocked();
    // Crash point: dying at the barrier. Every pwrite before it is
    // already in the kernel, so nothing tears — the commit simply
    // never reaches its meta write.
    fault::FaultInjector& injector = fault::FaultInjector::Get();
    if (injector.active()) {
        try {
            injector.Check(fault::FaultSite::kStorageSync);
        } catch (const fault::FaultInjected&) {
            crashed_ = true;
            throw;
        }
    }
    switch (sync_mode_) {
    case SyncMode::kFlush:
        // fd writes are already with the kernel; no device barrier.
        break;
    case SyncMode::kFsync:
#if defined(__linux__)
        if (::fdatasync(fd_) != 0) {
#else
        if (::fsync(fd_) != 0) {
#endif
            throw IoError("pager: fsync failed for '" + path_ + "': " +
                          std::strerror(errno));
        }
        break;
    }
    ++stats_.syncs;
}

PagerStats
Pager::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
Pager::ResetStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = PagerStats{};
}

}  // namespace dbscore::storage

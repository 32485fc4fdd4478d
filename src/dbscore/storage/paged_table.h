/**
 * @file
 * PagedTable: an out-of-core feature table over Pager + BufferPool.
 *
 * Layout (all pages checksummed by the pager):
 *  - page 0: pager superblock;
 *  - pages 1 and 2: double-buffered table-meta slots (row/column
 *    counts, label column, column names, generation counter, heads of
 *    the four chains below). Generation g lives in slot 1 + (g % 2),
 *    so a commit never overwrites the newest committed meta;
 *  - kFeatures pages: row-major float32 feature rows, a fixed
 *    rows_per_page per page (PAX-lite row groups: rows stay compact so
 *    a page maps 1:1 onto a contiguous RowView, while zone maps are
 *    kept per *column* within the page);
 *  - kLabels pages: the label column, packed floats;
 *  - four metadata chains in one format: each page holds the next
 *    page's id (0 ends the chain), an entry count, and that many
 *    fixed-size entries. kDirectory chains list the feature and label
 *    pages (u32 ids), the kZoneMap chain holds one {min,max} pair per
 *    feature column per data page, and the kFreeList chain lists
 *    reclaimable pages (u32 ids). One writer and one reader handle all
 *    four; the reader fails a chain page of another type, a count past
 *    the page's payload and a walk longer than the file with
 *    DataCorruption, so Open() rolls back past hostile chain pages as
 *    it does past a torn meta slot.
 *
 * Commit protocol (DESIGN.md §16): Flush() writes data, directory,
 * zone, and free-list pages first, barriers them (Pager::Sync), then
 * writes generation g+1 into the *other* meta slot and barriers
 * again. The meta-slot write is the atomic commit point: a crash
 * anywhere before it leaves the slot for g intact, and the torn slot
 * (caught by its checksum) rolls the table back to g on the next
 * Open(). Chains are rewritten each commit; the pages the previous
 * generation used for chains — plus data pages shadow-copied out of
 * the committed generation before being appended to — go onto the
 * next commit's persistent free list, where recovery-reclaimed
 * orphans also land, so the file stops growing once a steady state
 * of appends/crashes is reached. Every page a commit or an append
 * needs comes from one page taker: the back of the free set,
 * re-stamped without being read, or else a fresh page.
 *
 * Recovery: Open() always recovers — newest valid meta slot wins,
 * torn slots and unloadable chains roll back, and an orphan sweep
 * (pages unreachable from the committed generation) refills the free
 * list. Open() and Recover() share that sweep and what follows it.
 * Scrub() re-reads every reachable page and quarantines checksum
 * failures.
 *
 * Zone maps are memory-resident once loaded; Scan() with a predicate
 * skips whole pages whose [min,max] for the predicate column cannot
 * intersect the wanted range. Pruning is conservative (page
 * granularity): surviving chunks may contain non-matching rows and the
 * consumer does exact row filtering.
 *
 * Streaming: Scan() returns a FeatureStream whose chunks are zero-copy
 * RowViews directly over pinned buffer-pool frames — an aliasing
 * shared_ptr keeps each pin alive exactly as long as its view, so the
 * PR 3 copy counters stay at zero across the paged path too.
 * Read-ahead: each Next() passes the pool the run of its next pages
 * that follow on in the file (pruned pages end a run), so a miss reads
 * up to kMaxReadRun of them with one vectored read (buffer_pool.h).
 * Only the chunk's own page is pinned: a live stream still holds one
 * data pin.
 *
 * Thread safety: concurrent Scan()/Feature()/Label() calls are safe
 * (the pool serializes frame bookkeeping; streams snapshot the page
 * list up front). Appends and Flush() require external exclusion with
 * respect to each other (the DBMS layer's single-writer rule).
 */
#ifndef DBSCORE_STORAGE_PAGED_TABLE_H
#define DBSCORE_STORAGE_PAGED_TABLE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "dbscore/data/row_block.h"
#include "dbscore/storage/buffer_pool.h"
#include "dbscore/storage/pager.h"
#include "dbscore/storage/recovery.h"

namespace dbscore::storage {

/** Knobs for the paged data plane (page file + pool sizing). */
struct StorageOptions {
    std::size_t page_size = kDefaultPageSize;
    /** Buffer pool capacity, in pages (appends to a committed table
     * shadow-copy the tail page and briefly pin two frames, so give
     * the pool at least 2). */
    std::size_t pool_pages = 64;
    /** Durability barrier strength for Flush() (see pager.h). kFlush
     * keeps the old bench-friendly no-barrier behaviour; kFsync makes
     * the commit protocol survive a system crash. */
    SyncMode sync_mode = SyncMode::kFlush;
    /** Run Scrub() during Open() and fail the attach (DataCorruption)
     * when any reachable page is corrupt. */
    bool scrub_on_attach = false;
};

/** Per-column [min,max] over one data page. */
struct ZoneRange {
    float min = 0.0F;
    float max = 0.0F;
};

/**
 * Page-pruning predicate: keep rows whose feature column @c column
 * falls in [min, max] (inclusive). Pages whose zone map cannot
 * intersect the range are skipped without being read; an empty range
 * (min above max) skips every page.
 */
struct ScanPredicate {
    std::size_t column = 0;
    float min = 0.0F;
    float max = 0.0F;
};

/** One streamed chunk: a feature RowView plus its global placement. */
struct StreamChunk {
    /** rows() x feature-cols view over a pinned page frame. */
    RowView view;
    /** Global row index of view row 0. */
    std::size_t row_begin = 0;
    /** Backing data page. */
    std::uint32_t page_id = 0;
};

class PagedTable;

/** A pull iterator of StreamChunks, one per (unpruned) data page. */
class FeatureStream {
 public:
    FeatureStream() = default;

    /**
     * Yields the next chunk, pinning its page (a miss may read the
     * stream's following pages too, unpinned). Returns false at end.
     * The chunk's view keeps its page pinned until the view (and every
     * slice of it) is destroyed.
     */
    bool Next(StreamChunk& chunk);

    /** Rows this stream will yield in total (post-pruning). */
    std::size_t total_rows() const { return total_rows_; }

    /** Chunks yielded so far. */
    std::size_t chunks_emitted() const { return next_entry_; }

 private:
    friend class PagedTable;

    struct Entry {
        std::uint32_t page_id = 0;
        std::size_t row_begin = 0;
        std::size_t rows = 0;
    };

    /** Keeps the table (pool, pager) alive while chunks are pending. */
    std::shared_ptr<const PagedTable> table_;
    std::vector<Entry> entries_;
    std::size_t next_entry_ = 0;
    /** End of the stretch of entries with consecutive page ids that
     * holds the last entry yielded. */
    std::size_t stretch_end_ = 0;
    std::size_t total_rows_ = 0;
};

/** Aggregate counters for EXEC sp_storage_stats / benches. */
struct StorageStats {
    BufferPoolStats pool;
    PagerStats pager;
    RecoveryStats recovery;
    std::uint64_t pages_scanned = 0;
    std::uint64_t pages_pruned = 0;
    std::uint64_t num_rows = 0;
    std::size_t data_pages = 0;
    std::size_t pool_pages = 0;
    /** Committed generation the table serves. */
    std::uint64_t generation = 0;
    /** Reusable pages on the in-memory free list right now. */
    std::size_t free_pages = 0;
};

/** One on-disk feature table. Create via Create()/Open() only. */
class PagedTable : public std::enable_shared_from_this<PagedTable> {
 public:
    /**
     * Creates a fresh page file at @p path. @p label_col ==
     * columns.size() means the table has no label column.
     * Every check runs before the file is opened, so a rejected
     * schema leaves the path untouched.
     * @throws InvalidArgument without a feature column, or for a page
     *         size below kMinPageSize
     * @throws CapacityError when one feature row does not fit a page,
     *         one zone-map entry does not fit a chain page, or the
     *         column names overflow the meta page
     */
    static std::shared_ptr<PagedTable> Create(
        const std::string& path, std::vector<std::string> columns,
        std::size_t label_col, const StorageOptions& options = {});

    /**
     * Opens an existing page file and loads meta/directory/zones.
     * Always runs recovery (RecoverOnOpen): adopt the newest valid
     * meta slot, roll back past torn commits, reclaim orphan pages
     * into the free list (persisting the reclaim when it found any).
     * last_recovery() reports what happened.
     * @throws DataCorruption when no committed generation survives
     */
    static std::shared_ptr<PagedTable> Open(
        const std::string& path, const StorageOptions& options = {});

    const std::string& path() const { return pager_.path(); }
    const std::vector<std::string>& columns() const { return columns_; }
    std::size_t label_col() const { return label_col_; }
    bool has_label() const { return label_col_ < columns_.size(); }
    std::size_t num_feature_cols() const { return feature_cols_; }
    std::uint64_t num_rows() const;
    std::size_t rows_per_page() const { return rows_per_page_; }
    std::size_t NumDataPages() const;

    /**
     * Appends one row (@p n == num_feature_cols() feature values;
     * @p label ignored when the table has no label column), updating
     * the page's zone map. Durable after the next Flush().
     */
    void AppendRow(const float* features, std::size_t n, float label);

    /**
     * Commits the in-memory state as generation g+1: data + chain +
     * free-list pages are written and barriered before the meta slot,
     * so a crash at any point leaves a committed generation behind.
     * A no-op when nothing changed since the last commit.
     */
    void Flush();

    /**
     * On-demand orphan sweep: commits pending appends, then reclaims
     * any page unreachable from the committed generation (debris of a
     * commit that died with an IoError) into the free list. Open()
     * already does this, so a healthy table reports nothing to do.
     */
    RecoveryReport Recover();

    /** What Open()'s recovery (or the last Recover()) found. */
    RecoveryReport last_recovery() const;

    /**
     * Online integrity pass: re-reads every page reachable from the
     * committed generation straight from the file (bypassing pool
     * frames) and verifies its checksum. Corrupt pages are reported
     * and quarantined (listed in the report + counted in stats);
     * reads of them keep failing loudly with DataCorruption.
     */
    ScrubReport Scrub() const;

    /** Committed generation currently served. */
    std::uint64_t generation() const;

    /** Feature value (pool read — may fault in a page). */
    float Feature(std::uint64_t row, std::size_t feature_col) const;

    /** Label value. @throws InvalidArgument when no label column */
    float Label(std::uint64_t row) const;

    /**
     * Copies the labels of the label page holding @p row into @p out
     * (one pin, released on return) and returns the page's first row:
     * a reader visiting rows in order pins each label page once.
     * @throws InvalidArgument when no label column
     */
    std::uint64_t CopyLabelPage(std::uint64_t row,
                                std::vector<float>& out) const;

    /**
     * Streams the feature pages, skipping pages the zone maps prove
     * cannot satisfy @p predicate (pass std::nullopt for a full scan).
     */
    FeatureStream Scan(
        const std::optional<ScanPredicate>& predicate = std::nullopt) const;

    /** Zone map of data page @p index (for tests / stats). */
    std::vector<ZoneRange> ZoneMap(std::size_t index) const;

    StorageStats Stats() const;
    void ResetStats();

 private:
    friend class FeatureStream;

    /** Parsed contents of one meta slot. */
    struct MetaSnapshot {
        std::uint64_t generation = 0;
        std::uint64_t num_rows = 0;
        std::vector<std::string> columns;
        std::size_t label_col = 0;
        std::size_t rows_per_page = 0;
        std::uint32_t data_head = 0;
        std::uint32_t label_head = 0;
        std::uint32_t zone_head = 0;
        std::uint32_t free_head = 0;
    };

    /** Where one row's label lives. */
    struct LabelSlot {
        std::uint32_t page_id = 0;
        /** First row of the page, and the page's rows in use. */
        std::uint64_t first_row = 0;
        std::size_t rows = 0;
    };

    /** @throws InvalidArgument without a label column or row. */
    LabelSlot LocateLabel(std::uint64_t row) const;

    /** What a meta slot held on disk. */
    enum class SlotState {
        kNeverWritten,  ///< valid page, zero payload (pre-first-commit)
        kValid,         ///< checksummed + parseable
        kCorrupt,       ///< torn write / checksum or parse failure
    };

    PagedTable(const std::string& path, const StorageOptions& options,
               bool create);

    /** The ordered commit: chains + free list, barrier, meta, barrier. */
    void CommitLocked();
    /** Meta-slot write for @p generation (the atomic commit point). */
    void WriteMetaSlotLocked(std::uint64_t generation,
                             std::uint32_t data_head,
                             std::uint32_t label_head,
                             std::uint32_t zone_head,
                             std::uint32_t free_head);
    SlotState ReadMetaSlotLocked(std::uint32_t slot, MetaSnapshot& snap);
    /** Loads chains/zones/free list of @p snap into memory. */
    void AdoptSnapshotLocked(const MetaSnapshot& snap);
    /** RecoverOnOpen: newest valid slot, rollback, orphan sweep. */
    void RecoverOnOpenLocked();
    /** Every recovery's end: the orphan sweep, a commit if it reclaimed
     * pages, the counters, last_recovery_ and the @p span span. */
    void FinishRecoveryLocked(const char* span, double wall_start,
                              bool rolled_back, std::uint32_t corrupt_slots);
    /** Marks reachable pages, folds the rest into free_pages_. */
    std::uint32_t SweepOrphansLocked();
    /** The one page taker: the back of @p available, re-stamped unread
     * (it may hold torn bytes) and counted as reused, else a new page. */
    std::uint32_t TakePageLocked(std::vector<std::uint32_t>& available,
                                 PageType type);
    /** Shadow-copies the committed tail page before mutating it. */
    std::uint32_t EnsureWritableTailLocked(
        std::vector<std::uint32_t>& pages, PageType type);
    /** Entries of @p entry_bytes a chain page of @p page_size bytes
     * holds (0 if none fits). */
    static std::size_t ChainEntriesPerPage(std::size_t page_size,
                                           std::size_t entry_bytes);
    /** Takes the pages a chain of @p count entries needs.
     * @throws CapacityError when one entry does not fit a page */
    std::vector<std::uint32_t> TakeChainLocked(
        PageType type, std::size_t count, std::size_t entry_bytes,
        std::vector<std::uint32_t>& available);
    /** The one chain writer: fills @p chain with @p count entries of
     * @p entry_bytes (tail pages may be short or empty); returns the
     * head, 0 for an empty chain. */
    std::uint32_t WriteChainLocked(const std::vector<std::uint32_t>& chain,
                                   const void* entries, std::size_t count,
                                   std::size_t entry_bytes);
    /** Receives one chain page's entries, in place in its frame. */
    using ChainVisitor =
        std::function<void(const std::uint8_t* entries, std::size_t count)>;
    /**
     * The one chain reader: walks the @p type chain from @p head into
     * @p chain_pages and hands each page's entries to @p visit.
     * @throws DataCorruption on a page of another type, a count past
     *         the page's payload, or a walk longer than the file
     */
    void ReadChainLocked(std::uint32_t head, PageType type,
                         std::size_t entry_bytes,
                         std::vector<std::uint32_t>& chain_pages,
                         const ChainVisitor& visit);
    std::size_t RowsInPage(std::size_t page_index,
                           std::uint64_t num_rows) const;

    mutable Pager pager_;
    mutable BufferPool pool_;
    std::vector<std::string> columns_;
    std::size_t label_col_ = 0;
    std::size_t feature_cols_ = 0;
    std::size_t rows_per_page_ = 0;
    std::size_t labels_per_page_ = 0;

    mutable std::mutex mutex_;  ///< guards the mutable members below
    std::uint64_t num_rows_ = 0;
    std::vector<std::uint32_t> data_pages_;
    std::vector<std::uint32_t> label_pages_;
    /** Zone maps: feature_cols_ ranges per data page, in page order. */
    std::vector<ZoneRange> zones_;

    /** Committed generation on disk (0 = nothing committed yet). */
    std::uint64_t generation_ = 0;
    /** Pages free in the committed generation — safe to reuse now. */
    std::vector<std::uint32_t> free_pages_;
    /** Chain + free-list pages of the committed generation (they die,
     * and become reusable, when the next commit supersedes them). */
    std::vector<std::uint32_t> meta_chain_pages_;
    /** Pages freed by this in-memory generation (shadow-copied data
     * pages): free only once the next commit lands. */
    std::vector<std::uint32_t> pending_free_;
    /** Data/label pages the committed generation references; appending
     * into one requires a shadow copy first. */
    std::unordered_set<std::uint32_t> committed_pages_;
    /** Uncommitted appends since the last commit. */
    bool dirty_ = false;
    RecoveryReport last_recovery_;
    mutable RecoveryStats recovery_stats_;
    /** Pages a Scrub() found corrupt (reads still fail loudly). */
    mutable std::vector<std::uint32_t> quarantined_;

    mutable std::atomic<std::uint64_t> pages_scanned_{0};
    mutable std::atomic<std::uint64_t> pages_pruned_{0};
};

}  // namespace dbscore::storage

#endif  // DBSCORE_STORAGE_PAGED_TABLE_H

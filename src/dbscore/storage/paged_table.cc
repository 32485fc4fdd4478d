#include "dbscore/storage/paged_table.h"

#include <algorithm>
#include <cstring>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/trace/trace.h"

namespace dbscore::storage {

namespace {

/** The two meta slots directly follow the superblock; generation g is
 * committed to slot 1 + (g % 2), so consecutive commits alternate and
 * never overwrite the newest committed meta. */
constexpr std::uint32_t kMetaSlotA = 1;
constexpr std::uint32_t kMetaSlotB = 2;

constexpr std::uint32_t
SlotForGeneration(std::uint64_t generation)
{
    return generation % 2 == 0 ? kMetaSlotA : kMetaSlotB;
}

/** Bounds-checked little serializer over one page payload. */
class PayloadWriter {
 public:
    PayloadWriter(std::uint8_t* data, std::size_t capacity) :
        data_(data), capacity_(capacity)
    {
    }

    template <typename T>
    void
    Put(const T& value)
    {
        PutBytes(&value, sizeof(T));
    }

    void
    PutBytes(const void* src, std::size_t len)
    {
        if (offset_ + len > capacity_) {
            throw CapacityError(
                StrFormat("paged table: serialized metadata (%zu bytes) "
                          "overflows a %zu-byte page payload",
                          offset_ + len, capacity_));
        }
        std::memcpy(data_ + offset_, src, len);
        offset_ += len;
    }

    std::size_t offset() const { return offset_; }

 private:
    std::uint8_t* data_;
    std::size_t capacity_;
    std::size_t offset_ = 0;
};

/** Payload bytes of a meta slot naming @p columns (its fixed fields
 * and one length-prefixed name per column; WriteMetaSlotLocked). */
std::size_t
MetaSlotBytes(const std::vector<std::string>& columns)
{
    std::size_t bytes = 2 * sizeof(std::uint64_t) + 7 * sizeof(std::uint32_t);
    for (const std::string& name : columns) {
        bytes += sizeof(std::uint16_t) + name.size();
    }
    return bytes;
}

class PayloadReader {
 public:
    PayloadReader(const std::uint8_t* data, std::size_t capacity) :
        data_(data), capacity_(capacity)
    {
    }

    template <typename T>
    T
    Get()
    {
        T value;
        GetBytes(&value, sizeof(T));
        return value;
    }

    void
    GetBytes(void* dst, std::size_t len)
    {
        if (offset_ + len > capacity_) {
            throw DataCorruption(
                "paged table: metadata truncated mid-record");
        }
        std::memcpy(dst, data_ + offset_, len);
        offset_ += len;
    }

 private:
    const std::uint8_t* data_;
    std::size_t capacity_;
    std::size_t offset_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// FeatureStream

bool
FeatureStream::Next(StreamChunk& chunk)
{
    if (table_ == nullptr || next_entry_ >= entries_.size()) {
        return false;
    }
    const std::size_t at = next_entry_++;
    const Entry& entry = entries_[at];
    // The stream's next pages that follow this one in the file: a miss
    // reads them with it (they are neither pruned nor pinned yet). Each
    // stretch of consecutive page ids is found once, not once per page.
    if (at >= stretch_end_) {
        stretch_end_ = at + 1;
        while (stretch_end_ < entries_.size() &&
               entries_[stretch_end_].page_id ==
                   entries_[stretch_end_ - 1].page_id + 1) {
            ++stretch_end_;
        }
    }
    const auto run = static_cast<std::uint32_t>(
        std::min<std::size_t>(stretch_end_ - at, kMaxReadRun));
    // Drop the previous chunk's pin before taking the next one so a
    // live stream holds at most one frame (caller-held slices keep
    // their own pins). Without this, every stream needs two frames at
    // the hand-off and concurrent scans exhaust small pools.
    chunk.view = RowView();
    // The aliasing shared_ptr ties the pin's lifetime to the view's:
    // the frame stays resident (and its bytes immutable) until the
    // last RowView slice over it is gone — zero-copy out of the pool.
    auto handle = std::make_shared<PageHandle>(
        table_->pool_.Pin(entry.page_id, run));
    const float* data =
        reinterpret_cast<const float*>(handle->payload());
    std::shared_ptr<const float[]> keepalive(std::move(handle), data);
    const std::size_t cols = table_->feature_cols_;
    chunk.view =
        RowView(std::move(keepalive), data, entry.rows, cols, cols);
    chunk.row_begin = entry.row_begin;
    chunk.page_id = entry.page_id;
    return true;
}

// ---------------------------------------------------------------------------
// PagedTable

PagedTable::PagedTable(const std::string& path,
                       const StorageOptions& options, bool create) :
    pager_(path,
           Pager::Options{.page_size = options.page_size,
                          .create = create,
                          .sync_mode = options.sync_mode}),
    pool_(pager_, BufferPool::Options{.capacity_pages = options.pool_pages})
{
}

std::shared_ptr<PagedTable>
PagedTable::Create(const std::string& path,
                   std::vector<std::string> columns, std::size_t label_col,
                   const StorageOptions& options)
{
    if (columns.empty()) {
        throw InvalidArgument("paged table: need at least one column");
    }
    if (label_col > columns.size()) {
        throw InvalidArgument(
            StrFormat("paged table: label column %zu out of range "
                      "(%zu columns)",
                      label_col, columns.size()));
    }
    // Every schema check precedes the pager, which truncates the path:
    // a rejected Create leaves whatever lives there untouched.
    const std::size_t feature_cols =
        columns.size() - (label_col < columns.size() ? 1 : 0);
    if (feature_cols == 0) {
        throw InvalidArgument(
            "paged table: need at least one feature column");
    }
    if (options.page_size < kMinPageSize) {
        throw InvalidArgument(
            StrFormat("paged table: page size %zu below minimum %zu",
                      options.page_size, kMinPageSize));
    }
    const std::size_t payload = PagePayloadBytes(options.page_size);
    const std::size_t rows_per_page =
        payload / (feature_cols * sizeof(float));
    if (rows_per_page == 0) {
        throw CapacityError(
            StrFormat("paged table: a %zu-feature row does not fit the "
                      "%zu-byte payload of a %zu-byte page",
                      feature_cols, payload, options.page_size));
    }
    // Every commit writes one zone-map entry per data page into chain
    // pages; a table whose entry cannot fit one could never commit.
    const std::size_t zone_entry_bytes = feature_cols * sizeof(ZoneRange);
    if (ChainEntriesPerPage(options.page_size, zone_entry_bytes) == 0) {
        throw CapacityError(
            StrFormat("paged table: a %zu-feature zone-map entry (%zu "
                      "bytes) does not fit a chain page of %zu bytes",
                      feature_cols, zone_entry_bytes, options.page_size));
    }
    if (MetaSlotBytes(columns) > payload) {
        throw CapacityError(
            StrFormat("paged table: the names of %zu columns overflow "
                      "the %zu-byte payload of a meta page",
                      columns.size(), payload));
    }
    std::shared_ptr<PagedTable> table(
        new PagedTable(path, options, /*create=*/true));
    table->columns_ = std::move(columns);
    table->label_col_ = label_col;
    table->feature_cols_ = feature_cols;
    table->rows_per_page_ = rows_per_page;
    table->labels_per_page_ = payload / sizeof(float);
    const std::uint32_t slot_a = table->pager_.Alloc(PageType::kTableMeta);
    const std::uint32_t slot_b = table->pager_.Alloc(PageType::kTableMeta);
    DBS_ASSERT(slot_a == kMetaSlotA && slot_b == kMetaSlotB);
    {
        std::lock_guard<std::mutex> lock(table->mutex_);
        table->CommitLocked();  // generation 1: the empty table
    }
    return table;
}

std::shared_ptr<PagedTable>
PagedTable::Open(const std::string& path, const StorageOptions& options)
{
    std::shared_ptr<PagedTable> table(
        new PagedTable(path, options, /*create=*/false));
    {
        std::lock_guard<std::mutex> lock(table->mutex_);
        table->RecoverOnOpenLocked();
    }
    if (options.scrub_on_attach) {
        const ScrubReport scrub = table->Scrub();
        if (!scrub.clean()) {
            throw DataCorruption("paged table '" + path +
                                 "': scrub-on-attach failed: " +
                                 scrub.Describe());
        }
    }
    return table;
}

std::uint64_t
PagedTable::num_rows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return num_rows_;
}

std::uint64_t
PagedTable::generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
}

RecoveryReport
PagedTable::last_recovery() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return last_recovery_;
}

std::size_t
PagedTable::NumDataPages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return data_pages_.size();
}

std::size_t
PagedTable::RowsInPage(std::size_t page_index,
                       std::uint64_t num_rows) const
{
    const std::uint64_t begin =
        static_cast<std::uint64_t>(page_index) * rows_per_page_;
    const std::uint64_t remaining = num_rows - begin;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, rows_per_page_));
}

std::uint32_t
PagedTable::TakePageLocked(std::vector<std::uint32_t>& available,
                           PageType type)
{
    if (!available.empty()) {
        const std::uint32_t id = available.back();
        available.pop_back();
        // The page's on-disk bytes may be torn garbage from a crashed
        // commit: drop any stale frame and re-stamp it without ever
        // reading it.
        pool_.Invalidate(id);
        pager_.Reinit(id, type);
        ++recovery_stats_.pages_reused;
        return id;
    }
    return pager_.Alloc(type);
}

std::uint32_t
PagedTable::EnsureWritableTailLocked(std::vector<std::uint32_t>& pages,
                                     PageType type)
{
    const std::uint32_t id = pages.back();
    if (committed_pages_.count(id) == 0) {
        return id;  // already private to the in-memory generation
    }
    // The committed generation references this page; writing into it
    // in place would tear the generation a mid-commit crash rolls
    // back to. Shadow-copy it to a private page first (the committed
    // one is freed when the next commit lands).
    const std::uint32_t fresh = TakePageLocked(free_pages_, type);
    {
        PageHandle src = pool_.Pin(id);
        PageHandle dst = pool_.Pin(fresh);
        const std::size_t payload = PagePayloadBytes(pager_.page_size());
        std::memcpy(dst.MutablePayload(), src.payload(), payload);
        HeaderOf(dst.MutableData())->payload_bytes =
            HeaderOf(src.data())->payload_bytes;
    }
    pages.back() = fresh;
    committed_pages_.erase(id);
    pending_free_.push_back(id);
    return fresh;
}

void
PagedTable::AppendRow(const float* features, std::size_t n, float label)
{
    if (n != feature_cols_) {
        throw InvalidArgument(
            StrFormat("paged table %s: appended row has %zu features, "
                      "schema has %zu",
                      path().c_str(), n, feature_cols_));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t slot =
        static_cast<std::size_t>(num_rows_ % rows_per_page_);
    if (slot == 0) {
        data_pages_.push_back(
            TakePageLocked(free_pages_, PageType::kFeatures));
        zones_.resize(zones_.size() + feature_cols_);
    }
    {
        const std::uint32_t target =
            EnsureWritableTailLocked(data_pages_, PageType::kFeatures);
        PageHandle handle = pool_.Pin(target);
        auto* dst = reinterpret_cast<float*>(handle.MutablePayload()) +
                    slot * feature_cols_;
        std::memcpy(dst, features, feature_cols_ * sizeof(float));
        HeaderOf(handle.MutableData())->payload_bytes =
            static_cast<std::uint32_t>((slot + 1) * feature_cols_ *
                                       sizeof(float));
    }
    // Ingest is the paged path's one materialization point — count it
    // so the post-load zero-copy guarantee stays checkable.
    RowBlock::NoteCopy(feature_cols_ * sizeof(float));
    ZoneRange* zone = zones_.data() + zones_.size() - feature_cols_;
    for (std::size_t c = 0; c < feature_cols_; ++c) {
        if (slot == 0) {
            zone[c] = ZoneRange{features[c], features[c]};
        } else {
            zone[c].min = std::min(zone[c].min, features[c]);
            zone[c].max = std::max(zone[c].max, features[c]);
        }
    }
    if (has_label()) {
        const std::size_t lslot =
            static_cast<std::size_t>(num_rows_ % labels_per_page_);
        if (lslot == 0) {
            label_pages_.push_back(
                TakePageLocked(free_pages_, PageType::kLabels));
        }
        const std::uint32_t target =
            EnsureWritableTailLocked(label_pages_, PageType::kLabels);
        PageHandle handle = pool_.Pin(target);
        reinterpret_cast<float*>(handle.MutablePayload())[lslot] = label;
        HeaderOf(handle.MutableData())->payload_bytes =
            static_cast<std::uint32_t>((lslot + 1) * sizeof(float));
    }
    ++num_rows_;
    dirty_ = true;
}

std::size_t
PagedTable::ChainEntriesPerPage(std::size_t page_size, std::size_t entry_bytes)
{
    return (PagePayloadBytes(page_size) - 2 * sizeof(std::uint32_t)) /
           entry_bytes;
}

std::vector<std::uint32_t>
PagedTable::TakeChainLocked(PageType type, std::size_t count,
                            std::size_t entry_bytes,
                            std::vector<std::uint32_t>& available)
{
    if (count == 0) {
        return {};
    }
    const std::size_t per_page =
        ChainEntriesPerPage(pager_.page_size(), entry_bytes);
    if (per_page == 0) {
        throw CapacityError(
            StrFormat("paged table %s: one %s entry (%zu bytes) does not "
                      "fit a page",
                      path().c_str(), PageTypeName(type), entry_bytes));
    }
    std::vector<std::uint32_t> chain((count + per_page - 1) / per_page);
    for (std::uint32_t& id : chain) {
        id = TakePageLocked(available, type);
    }
    return chain;
}

std::uint32_t
PagedTable::WriteChainLocked(const std::vector<std::uint32_t>& chain,
                             const void* entries, std::size_t count,
                             std::size_t entry_bytes)
{
    if (chain.empty()) {
        return 0;  // page 0 is the superblock: a safe null
    }
    const std::size_t payload = PagePayloadBytes(pager_.page_size());
    const std::size_t per_page =
        ChainEntriesPerPage(pager_.page_size(), entry_bytes);
    const auto* bytes = static_cast<const std::uint8_t*>(entries);
    for (std::size_t p = 0; p < chain.size(); ++p) {
        const std::size_t begin = std::min(p * per_page, count);
        const std::size_t n = std::min(per_page, count - begin);
        PageHandle handle = pool_.Pin(chain[p]);
        PayloadWriter writer(handle.MutablePayload(), payload);
        writer.Put<std::uint32_t>(p + 1 < chain.size() ? chain[p + 1] : 0);
        writer.Put<std::uint32_t>(static_cast<std::uint32_t>(n));
        writer.PutBytes(bytes + begin * entry_bytes, n * entry_bytes);
        HeaderOf(handle.MutableData())->payload_bytes =
            static_cast<std::uint32_t>(writer.offset());
    }
    return chain.front();
}

void
PagedTable::ReadChainLocked(std::uint32_t head, PageType type,
                            std::size_t entry_bytes,
                            std::vector<std::uint32_t>& chain_pages,
                            const ChainVisitor& visit)
{
    // Every check precedes the visit, so nothing is sized from a page
    // that fails one, and a walk that passes them all hands over at
    // most a file's worth of entries.
    const std::size_t per_page =
        ChainEntriesPerPage(pager_.page_size(), entry_bytes);
    const std::uint32_t file_pages = pager_.num_pages();
    std::uint32_t walked = 0;
    for (std::uint32_t page = head; page != 0;) {
        if (++walked > file_pages) {
            throw DataCorruption(
                StrFormat("paged table %s: the %s chain from page %u is "
                          "longer than the file's %u pages",
                          path().c_str(), PageTypeName(type), head,
                          file_pages));
        }
        chain_pages.push_back(page);
        PageHandle handle = pool_.Pin(page);
        const auto found = static_cast<PageType>(HeaderOf(handle.data())->type);
        if (found != type) {
            throw DataCorruption(
                StrFormat("paged table %s: page %u of a %s chain is a %s "
                          "page",
                          path().c_str(), page, PageTypeName(type),
                          PageTypeName(found)));
        }
        std::uint32_t next = 0;
        std::uint32_t count = 0;
        std::memcpy(&next, handle.payload(), sizeof(next));
        std::memcpy(&count, handle.payload() + sizeof(next), sizeof(count));
        if (count > per_page) {
            throw DataCorruption(
                StrFormat("paged table %s: %s chain page %u lists %u "
                          "entries, its payload holds %zu",
                          path().c_str(), PageTypeName(type), page, count,
                          per_page));
        }
        visit(handle.payload() + 2 * sizeof(std::uint32_t), count);
        page = next;
    }
}

void
PagedTable::WriteMetaSlotLocked(std::uint64_t generation,
                                std::uint32_t data_head,
                                std::uint32_t label_head,
                                std::uint32_t zone_head,
                                std::uint32_t free_head)
{
    const std::uint32_t slot = SlotForGeneration(generation);
    std::vector<std::uint8_t> page(pager_.page_size());
    InitPage(page.data(), pager_.page_size(), slot, PageType::kTableMeta);
    PayloadWriter writer(PayloadOf(page.data()),
                         PagePayloadBytes(pager_.page_size()));
    writer.Put<std::uint64_t>(generation);
    writer.Put<std::uint64_t>(num_rows_);
    writer.Put<std::uint32_t>(static_cast<std::uint32_t>(columns_.size()));
    writer.Put<std::uint32_t>(static_cast<std::uint32_t>(label_col_));
    writer.Put<std::uint32_t>(static_cast<std::uint32_t>(rows_per_page_));
    writer.Put<std::uint32_t>(data_head);
    writer.Put<std::uint32_t>(label_head);
    writer.Put<std::uint32_t>(zone_head);
    writer.Put<std::uint32_t>(free_head);
    for (const std::string& name : columns_) {
        writer.Put<std::uint16_t>(static_cast<std::uint16_t>(name.size()));
        writer.PutBytes(name.data(), name.size());
    }
    DBS_ASSERT(writer.offset() == MetaSlotBytes(columns_));  // Create's check
    HeaderOf(page.data())->payload_bytes =
        static_cast<std::uint32_t>(writer.offset());
    // The atomic commit point: its own fault site so chaos plans can
    // kill exactly this write. Meta slots bypass the buffer pool — the
    // commit's ordering depends on this write landing *after* the
    // barrier below, which pool caching would obscure.
    pager_.Write(slot, page.data(), fault::FaultSite::kMetaCommit);
}

void
PagedTable::CommitLocked()
{
    // Ordered commit (DESIGN.md §16). Steps 1-3 write generation g+1's
    // pages without touching anything generation g references; step 4
    // barriers them; step 5 writes the g+1 meta slot (atomic commit
    // point); step 6 barriers that. A crash anywhere leaves g (before
    // step 5) or g+1 (after) fully intact on disk.
    const std::uint64_t next_gen = generation_ + 1;

    // 1. Chains, allocated from pages that are free in generation g.
    std::vector<std::uint32_t> available = free_pages_;
    std::vector<std::uint32_t> new_meta_pages;
    auto write_chain = [&](PageType type, const void* entries,
                           std::size_t count, std::size_t entry_bytes) {
        const std::vector<std::uint32_t> chain =
            TakeChainLocked(type, count, entry_bytes, available);
        new_meta_pages.insert(new_meta_pages.end(), chain.begin(),
                              chain.end());
        return WriteChainLocked(chain, entries, count, entry_bytes);
    };
    const std::uint32_t data_head =
        write_chain(PageType::kDirectory, data_pages_.data(),
                    data_pages_.size(), sizeof(std::uint32_t));
    const std::uint32_t label_head =
        write_chain(PageType::kDirectory, label_pages_.data(),
                    label_pages_.size(), sizeof(std::uint32_t));
    const std::uint32_t zone_head =
        write_chain(PageType::kZoneMap, zones_.data(),
                    zones_.size() / feature_cols_,
                    feature_cols_ * sizeof(ZoneRange));

    // 2. The free set of g+1: pages this generation shadow-copied out
    // of g and g's own chain/free-list pages (dead once g+1 commits) —
    // the dead-chain compaction. These are only *recorded*: generation
    // g still references them, so nothing may overwrite them until the
    // commit point lands.
    std::vector<std::uint32_t> next_free = pending_free_;
    next_free.insert(next_free.end(), meta_chain_pages_.begin(),
                     meta_chain_pages_.end());

    // 3. Persist the free list. Its chain pages are drawn from what is
    // left of `available` — pages free in g, which a rollback never
    // needs — so recording what is free does not grow the file every
    // commit. The chain is sized against the pre-draw total, so the
    // draw can only leave its tail short; what the draw leaves of
    // `available` then joins the recorded contents.
    std::vector<std::uint32_t> freelist_pages =
        TakeChainLocked(PageType::kFreeList,
                        next_free.size() + available.size(),
                        sizeof(std::uint32_t), available);
    next_free.insert(next_free.end(), available.begin(), available.end());
    std::uint32_t free_head = 0;
    if (next_free.empty()) {
        // The draw drained the set: nothing to record. The re-stamped
        // chain pages stay free in memory, unlisted on disk (the next
        // recovery sweep re-collects them), and belong to no chain of
        // g+1: listed as one, the next commit would free them again
        // while they are in use.
        next_free.swap(freelist_pages);
    } else {
        free_head = WriteChainLocked(freelist_pages, next_free.data(),
                                     next_free.size(), sizeof(std::uint32_t));
    }

    // 4. Barrier: every g+1 page is durable before the commit point.
    pool_.FlushAll();

    // 5. The atomic commit point.
    WriteMetaSlotLocked(next_gen, data_head, label_head, zone_head,
                        free_head);

    // 6. Barrier the commit record itself.
    pager_.Sync();

    // Success: adopt g+1 in memory.
    generation_ = next_gen;
    free_pages_ = std::move(next_free);
    meta_chain_pages_ = std::move(new_meta_pages);
    meta_chain_pages_.insert(meta_chain_pages_.end(),
                             freelist_pages.begin(), freelist_pages.end());
    pending_free_.clear();
    committed_pages_.clear();
    committed_pages_.insert(data_pages_.begin(), data_pages_.end());
    committed_pages_.insert(label_pages_.begin(), label_pages_.end());
    dirty_ = false;
}

PagedTable::SlotState
PagedTable::ReadMetaSlotLocked(std::uint32_t slot, MetaSnapshot& snap)
{
    std::vector<std::uint8_t> page(pager_.page_size());
    try {
        pager_.Read(slot, page.data());
    } catch (const DataCorruption&) {
        return SlotState::kCorrupt;  // torn commit write
    }
    const PageHeader* header = HeaderOf(page.data());
    if (header->payload_bytes == 0) {
        return SlotState::kNeverWritten;  // pre-first-commit slot
    }
    if (header->type != static_cast<std::uint16_t>(PageType::kTableMeta)) {
        return SlotState::kCorrupt;
    }
    const std::size_t capacity =
        std::min<std::size_t>(header->payload_bytes,
                              PagePayloadBytes(pager_.page_size()));
    try {
        PayloadReader reader(PayloadOf(page.data()), capacity);
        snap.generation = reader.Get<std::uint64_t>();
        snap.num_rows = reader.Get<std::uint64_t>();
        const auto num_cols = reader.Get<std::uint32_t>();
        snap.label_col = reader.Get<std::uint32_t>();
        snap.rows_per_page = reader.Get<std::uint32_t>();
        snap.data_head = reader.Get<std::uint32_t>();
        snap.label_head = reader.Get<std::uint32_t>();
        snap.zone_head = reader.Get<std::uint32_t>();
        snap.free_head = reader.Get<std::uint32_t>();
        snap.columns.clear();
        for (std::uint32_t i = 0; i < num_cols; ++i) {
            const auto len = reader.Get<std::uint16_t>();
            std::string name(len, '\0');
            reader.GetBytes(name.data(), len);
            snap.columns.push_back(std::move(name));
        }
    } catch (const DataCorruption&) {
        return SlotState::kCorrupt;
    }
    if (snap.generation == 0 || SlotForGeneration(snap.generation) != slot) {
        return SlotState::kCorrupt;  // commit written to the wrong slot
    }
    return SlotState::kValid;
}

void
PagedTable::AdoptSnapshotLocked(const MetaSnapshot& snap)
{
    columns_ = snap.columns;
    label_col_ = snap.label_col;
    num_rows_ = snap.num_rows;
    rows_per_page_ = snap.rows_per_page;
    const bool labeled = label_col_ < columns_.size();
    feature_cols_ = columns_.size() - (labeled ? 1 : 0);
    const std::size_t payload = PagePayloadBytes(pager_.page_size());
    labels_per_page_ = payload / sizeof(float);
    const std::size_t expected_rpp =
        feature_cols_ == 0 ? 0 : payload / (feature_cols_ * sizeof(float));
    if (feature_cols_ == 0 || rows_per_page_ != expected_rpp) {
        throw DataCorruption(
            StrFormat("paged table %s: meta rows-per-page %zu does not "
                      "match geometry (%zu)",
                      path().c_str(), rows_per_page_, expected_rpp));
    }
    // Each chain's entries are packed values of one member vector,
    // appended straight from the pinned chain page.
    auto append_to = [](auto& out, std::size_t values_per_entry) {
        return [&out, values_per_entry](const std::uint8_t* entries,
                                        std::size_t count) {
            const std::size_t old = out.size();
            out.resize(old + count * values_per_entry);
            std::memcpy(out.data() + old, entries,
                        count * values_per_entry * sizeof(out[0]));
        };
    };
    data_pages_.clear();
    label_pages_.clear();
    zones_.clear();
    free_pages_.clear();
    std::vector<std::uint32_t> chain_pages;
    ReadChainLocked(snap.data_head, PageType::kDirectory,
                    sizeof(std::uint32_t), chain_pages,
                    append_to(data_pages_, 1));
    ReadChainLocked(snap.label_head, PageType::kDirectory,
                    sizeof(std::uint32_t), chain_pages,
                    append_to(label_pages_, 1));
    // The zone map holds one entry per data page: sized once, not grown
    // page by page, and only for as many data pages as the file holds.
    const std::uint32_t file_pages = pager_.num_pages();
    if (data_pages_.size() > file_pages) {
        throw DataCorruption(
            StrFormat("paged table %s: directory lists %zu data pages in "
                      "a %u-page file",
                      path().c_str(), data_pages_.size(), file_pages));
    }
    zones_.reserve(data_pages_.size() * feature_cols_);
    ReadChainLocked(snap.zone_head, PageType::kZoneMap,
                    feature_cols_ * sizeof(ZoneRange), chain_pages,
                    append_to(zones_, feature_cols_));
    ReadChainLocked(snap.free_head, PageType::kFreeList,
                    sizeof(std::uint32_t), chain_pages,
                    append_to(free_pages_, 1));
    meta_chain_pages_ = std::move(chain_pages);
    // Rounded up without overflow: a hostile row count near 2^64 must
    // not wrap to a page count the chains can match.
    auto pages_for = [this](std::size_t per_page) {
        return num_rows_ / per_page + (num_rows_ % per_page != 0 ? 1 : 0);
    };
    const std::uint64_t expected_pages = pages_for(rows_per_page_);
    if (data_pages_.size() != expected_pages ||
        zones_.size() / feature_cols_ != expected_pages ||
        (labeled && label_pages_.size() != pages_for(labels_per_page_))) {
        throw DataCorruption(
            StrFormat("paged table %s: directory lists %zu data / %zu "
                      "zone pages for %llu rows",
                      path().c_str(), data_pages_.size(),
                      zones_.size() / feature_cols_,
                      static_cast<unsigned long long>(num_rows_)));
    }
    // Every page has one role. An entry naming a page past the file, or
    // one another role holds, would otherwise be read as the wrong kind
    // of page or, from the free list, re-stamped while in use.
    std::vector<char> listed(file_pages, 0);
    listed[0] = listed[kMetaSlotA] = listed[kMetaSlotB] = 1;
    for (const std::vector<std::uint32_t>* ids :
         {&meta_chain_pages_, &data_pages_, &label_pages_, &free_pages_}) {
        for (const std::uint32_t id : *ids) {
            if (id >= file_pages || listed[id] != 0) {
                throw DataCorruption(
                    StrFormat("paged table %s: page %u is listed twice or "
                              "lies past the file's %u pages",
                              path().c_str(), id, file_pages));
            }
            listed[id] = 1;
        }
    }
    generation_ = snap.generation;
    pending_free_.clear();
    committed_pages_.clear();
    committed_pages_.insert(data_pages_.begin(), data_pages_.end());
    committed_pages_.insert(label_pages_.begin(), label_pages_.end());
    dirty_ = false;
}

std::uint32_t
PagedTable::SweepOrphansLocked()
{
    const std::uint32_t num_pages = pager_.num_pages();
    std::vector<char> reachable(num_pages, 0);
    auto mark = [&reachable, num_pages](std::uint32_t id) {
        if (id < num_pages) {
            reachable[id] = 1;
        }
    };
    mark(0);
    mark(kMetaSlotA);
    mark(kMetaSlotB);
    for (const std::uint32_t id : data_pages_) mark(id);
    for (const std::uint32_t id : label_pages_) mark(id);
    for (const std::uint32_t id : meta_chain_pages_) mark(id);
    for (const std::uint32_t id : free_pages_) mark(id);
    for (const std::uint32_t id : pending_free_) mark(id);
    std::uint32_t orphans = 0;
    for (std::uint32_t id = 0; id < num_pages; ++id) {
        if (reachable[id] == 0) {
            // Unreachable from the committed generation: debris of a
            // crashed or failed commit. Safe to reuse — reclaim it.
            free_pages_.push_back(id);
            ++orphans;
        }
    }
    return orphans;
}

void
PagedTable::RecoverOnOpenLocked()
{
    const double wall_start = trace::TraceCollector::Get().NowWallMicros();

    if (pager_.num_pages() < kMetaSlotB + 1) {
        throw DataCorruption("paged table '" + path() +
                             "' is too small to hold its meta slots");
    }
    MetaSnapshot snaps[2];
    SlotState states[2];
    states[0] = ReadMetaSlotLocked(kMetaSlotA, snaps[0]);
    states[1] = ReadMetaSlotLocked(kMetaSlotB, snaps[1]);
    std::uint32_t corrupt_slots = 0;
    std::vector<int> candidates;
    for (int i = 0; i < 2; ++i) {
        if (states[i] == SlotState::kCorrupt) {
            ++corrupt_slots;
        } else if (states[i] == SlotState::kValid) {
            candidates.push_back(i);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&snaps](int a, int b) {
                  return snaps[a].generation > snaps[b].generation;
              });
    bool adopted = false;
    bool skipped_newer = false;
    for (const int slot : candidates) {
        try {
            AdoptSnapshotLocked(snaps[slot]);
            adopted = true;
            break;
        } catch (const Error&) {
            // This generation's chains are unreadable (its commit died
            // mid-flight, or a page rotted): roll back to the other.
            skipped_newer = true;
        }
    }
    if (!adopted) {
        throw DataCorruption(
            StrFormat("paged table %s: no committed generation survives "
                      "(%u torn meta slot(s))",
                      path().c_str(), corrupt_slots));
    }
    FinishRecoveryLocked("recover-on-open", wall_start,
                         corrupt_slots > 0 || skipped_newer, corrupt_slots);
}

void
PagedTable::FinishRecoveryLocked(const char* span, double wall_start,
                                 bool rolled_back, std::uint32_t corrupt_slots)
{
    const std::uint32_t orphans = SweepOrphansLocked();
    if (orphans > 0) {
        // Persist the reclaim so repeated crash/recover cycles reuse
        // the same pages instead of growing the file without bound.
        CommitLocked();
    }
    ++recovery_stats_.recoveries;
    if (rolled_back) {
        ++recovery_stats_.rollbacks;
    }
    recovery_stats_.orphans_reclaimed += orphans;
    last_recovery_ = RecoveryReport{};
    last_recovery_.generation = generation_;
    last_recovery_.rolled_back = rolled_back;
    last_recovery_.corrupt_meta_slots = corrupt_slots;
    last_recovery_.orphans_reclaimed = orphans;
    last_recovery_.free_pages =
        static_cast<std::uint32_t>(free_pages_.size());
    last_recovery_.performed = rolled_back || orphans > 0;
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.EmitWall(
        trace::StageKind::kRecovery, span, trace::TraceCollector::Current(),
        wall_start, tracer.NowWallMicros() - wall_start,
        {{"generation", static_cast<double>(generation_)},
         {"rolled_back", rolled_back ? 1.0 : 0.0},
         {"orphans_reclaimed", static_cast<double>(orphans)}});
}

RecoveryReport
PagedTable::Recover()
{
    const double wall_start = trace::TraceCollector::Get().NowWallMicros();
    std::lock_guard<std::mutex> lock(mutex_);
    if (dirty_) {
        CommitLocked();  // make "reachable" mean "committed"
    }
    FinishRecoveryLocked("recover", wall_start, /*rolled_back=*/false,
                         /*corrupt_slots=*/0);
    return last_recovery_;
}

ScrubReport
PagedTable::Scrub() const
{
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const double wall_start = tracer.NowWallMicros();

    std::lock_guard<std::mutex> lock(mutex_);
    ScrubReport report;
    // Every page the committed generation can reach. The inactive
    // meta slot and free-listed pages are allowed to hold garbage
    // (that is the design), so they are not scrubbed.
    std::vector<std::uint32_t> targets;
    targets.push_back(0);
    if (generation_ > 0) {
        targets.push_back(SlotForGeneration(generation_));
    }
    targets.insert(targets.end(), meta_chain_pages_.begin(),
                   meta_chain_pages_.end());
    targets.insert(targets.end(), data_pages_.begin(), data_pages_.end());
    targets.insert(targets.end(), label_pages_.begin(),
                   label_pages_.end());
    std::vector<std::uint8_t> page(pager_.page_size());
    for (const std::uint32_t id : targets) {
        try {
            // Straight from the file, not the pool: a scrub must see
            // what is actually on disk, not a cached frame.
            pager_.Read(id, page.data());
            ++report.pages_checked;
        } catch (const DataCorruption&) {
            ++report.pages_checked;
            report.corrupt_pages.push_back(id);
        }
    }
    ++recovery_stats_.scrubs;
    recovery_stats_.scrub_corruptions += report.corrupt_pages.size();
    for (const std::uint32_t id : report.corrupt_pages) {
        if (std::find(quarantined_.begin(), quarantined_.end(), id) ==
            quarantined_.end()) {
            quarantined_.push_back(id);
        }
    }
    tracer.EmitWall(
        trace::StageKind::kScrub, "scrub",
        trace::TraceCollector::Current(), wall_start,
        tracer.NowWallMicros() - wall_start,
        {{"pages_checked", static_cast<double>(report.pages_checked)},
         {"corrupt", static_cast<double>(report.corrupt_pages.size())}});
    return report;
}

void
PagedTable::Flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dirty_) {
        return;  // nothing new: the committed generation stands
    }
    CommitLocked();
}

float
PagedTable::Feature(std::uint64_t row, std::size_t feature_col) const
{
    std::uint32_t page_id = 0;
    std::size_t slot = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (row >= num_rows_ || feature_col >= feature_cols_) {
            throw InvalidArgument(
                StrFormat("paged table %s: read of row %llu col %zu out "
                          "of range",
                          path().c_str(),
                          static_cast<unsigned long long>(row),
                          feature_col));
        }
        page_id = data_pages_[static_cast<std::size_t>(
            row / rows_per_page_)];
        slot = static_cast<std::size_t>(row % rows_per_page_);
    }
    PageHandle handle = pool_.Pin(page_id);
    return reinterpret_cast<const float*>(
        handle.payload())[slot * feature_cols_ + feature_col];
}

float
PagedTable::Label(std::uint64_t row) const
{
    const LabelSlot at = LocateLabel(row);
    PageHandle handle = pool_.Pin(at.page_id);
    return reinterpret_cast<const float*>(
        handle.payload())[static_cast<std::size_t>(row - at.first_row)];
}

std::uint64_t
PagedTable::CopyLabelPage(std::uint64_t row, std::vector<float>& out) const
{
    const LabelSlot at = LocateLabel(row);
    PageHandle handle = pool_.Pin(at.page_id);
    const auto* labels = reinterpret_cast<const float*>(handle.payload());
    out.assign(labels, labels + at.rows);
    return at.first_row;
}

PagedTable::LabelSlot
PagedTable::LocateLabel(std::uint64_t row) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!has_label()) {
        throw InvalidArgument("paged table '" + path() +
                              "' has no label column");
    }
    if (row >= num_rows_) {
        throw InvalidArgument(
            StrFormat("paged table %s: label read of row %llu out "
                      "of range",
                      path().c_str(), static_cast<unsigned long long>(row)));
    }
    const std::uint64_t index = row / labels_per_page_;
    LabelSlot at;
    at.page_id = label_pages_[static_cast<std::size_t>(index)];
    at.first_row = index * labels_per_page_;
    at.rows = static_cast<std::size_t>(
        std::min<std::uint64_t>(labels_per_page_, num_rows_ - at.first_row));
    return at;
}

FeatureStream
PagedTable::Scan(const std::optional<ScanPredicate>& predicate) const
{
    if (predicate.has_value() && predicate->column >= feature_cols_) {
        throw InvalidArgument(
            StrFormat("paged table %s: scan predicate column %zu out of "
                      "range (%zu feature columns)",
                      path().c_str(), predicate->column, feature_cols_));
    }
    FeatureStream stream;
    stream.table_ = shared_from_this();
    std::lock_guard<std::mutex> lock(mutex_);
    stream.entries_.reserve(data_pages_.size());
    // An empty range (min above max) prunes every page.
    const bool empty =
        predicate.has_value() && predicate->min > predicate->max;
    for (std::size_t p = 0; p < data_pages_.size(); ++p) {
        if (predicate.has_value()) {
            const ZoneRange& zone =
                zones_[p * feature_cols_ + predicate->column];
            if (empty || zone.max < predicate->min ||
                zone.min > predicate->max) {
                pages_pruned_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
        }
        pages_scanned_.fetch_add(1, std::memory_order_relaxed);
        FeatureStream::Entry entry;
        entry.page_id = data_pages_[p];
        entry.row_begin = p * rows_per_page_;
        entry.rows = RowsInPage(p, num_rows_);
        stream.total_rows_ += entry.rows;
        stream.entries_.push_back(entry);
    }
    return stream;
}

std::vector<ZoneRange>
PagedTable::ZoneMap(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (index >= data_pages_.size()) {
        throw InvalidArgument(
            StrFormat("paged table %s: zone map %zu out of range (%zu "
                      "data pages)",
                      path().c_str(), index, data_pages_.size()));
    }
    const auto first = zones_.begin() +
                       static_cast<std::ptrdiff_t>(index * feature_cols_);
    return {first, first + static_cast<std::ptrdiff_t>(feature_cols_)};
}

StorageStats
PagedTable::Stats() const
{
    StorageStats stats;
    stats.pool = pool_.stats();
    stats.pager = pager_.stats();
    stats.pages_scanned = pages_scanned_.load(std::memory_order_relaxed);
    stats.pages_pruned = pages_pruned_.load(std::memory_order_relaxed);
    stats.pool_pages = pool_.capacity();
    std::lock_guard<std::mutex> lock(mutex_);
    stats.recovery = recovery_stats_;
    stats.num_rows = num_rows_;
    stats.data_pages = data_pages_.size();
    stats.generation = generation_;
    stats.free_pages = free_pages_.size();
    return stats;
}

void
PagedTable::ResetStats()
{
    pool_.ResetStats();
    pager_.ResetStats();
    pages_scanned_.store(0, std::memory_order_relaxed);
    pages_pruned_.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    recovery_stats_ = RecoveryStats{};
}

}  // namespace dbscore::storage

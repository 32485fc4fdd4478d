/**
 * @file
 * Tests for the crash-consistency & recovery plane (DESIGN.md §16):
 *
 *  - commit protocol: Create() commits generation 1, every Flush()
 *    advances the generation, meta slots alternate, and the table
 *    persists across Open();
 *  - crash-point matrix: a deterministic Nth-write kill at
 *    kStorageWrite / kStorageSync / kMetaCommit during a commit, after
 *    which reopening the file recovers to a committed generation and
 *    every surviving row is bit-identical;
 *  - torn writes per page kind: a corrupted meta slot rolls the table
 *    back a generation, a corrupted directory / zone-map page on a
 *    single-generation file is DataCorruption at Open(), a corrupted
 *    data page surfaces lazily as DataCorruption and is caught by
 *    Scrub();
 *  - recovery idempotence: recovering twice leaves the file bytes and
 *    the data identical;
 *  - free-list reuse: repeated commit and crash/recover cycles bound
 *    file growth instead of leaking pages;
 *  - DBMS wiring: EXEC sp_storage_recover / sp_storage_scrub, the
 *    recovery columns of sp_storage_stats, recovery-aware
 *    AttachPagedTable with scoring bit-identical to in-memory, and
 *    scrub_on_attach failing loudly on a corrupt file.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/storage/buffer_pool.h"
#include "dbscore/storage/page.h"
#include "dbscore/storage/paged_table.h"
#include "dbscore/storage/pager.h"
#include "dbscore/storage/recovery.h"

namespace dbscore {
namespace {

using storage::FeatureStream;
using storage::PagedTable;
using storage::PageType;
using storage::RecoveryReport;
using storage::ScrubReport;
using storage::StorageOptions;
using storage::StreamChunk;
using storage::SyncMode;

/** Self-cleaning scratch directory for page files. */
class RecoveryTestBase : public ::testing::Test {
 protected:
    void SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("dbscore_recovery_") + info->test_suite_name() +
                "_" + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string Path(const std::string& name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

using RecoveryTest = RecoveryTestBase;
using RecoveryCrashTest = RecoveryTestBase;
using RecoveryTornTest = RecoveryTestBase;
using RecoveryDbmsTest = RecoveryTestBase;

constexpr std::size_t kPageSize = 512;

StorageOptions
SmallPages()
{
    StorageOptions options;
    options.page_size = kPageSize;
    options.pool_pages = 8;
    return options;
}

std::shared_ptr<PagedTable>
MakeTable(const std::string& path, const Dataset& data,
          const StorageOptions& options)
{
    std::vector<std::string> columns;
    for (std::size_t c = 0; c < data.num_features(); ++c) {
        columns.push_back("f" + std::to_string(c));
    }
    columns.push_back("label");
    auto table =
        PagedTable::Create(path, columns, data.num_features(), options);
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        table->AppendRow(data.Row(r), data.num_features(), data.Label(r));
    }
    table->Flush();
    return table;
}

void
AppendRows(PagedTable& table, const Dataset& data, std::size_t begin,
           std::size_t end)
{
    for (std::size_t r = begin; r < end; ++r) {
        table.AppendRow(data.Row(r), data.num_features(), data.Label(r));
    }
}

/** Asserts every row of @p table matches @p data exactly. */
void
ExpectRowsBitIdentical(const PagedTable& table, const Dataset& data,
                       std::size_t num_rows)
{
    ASSERT_EQ(table.num_rows(), num_rows);
    FeatureStream stream = table.Scan();
    StreamChunk chunk;
    std::size_t rows_seen = 0;
    while (stream.Next(chunk)) {
        for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
            const std::size_t global = chunk.row_begin + r;
            for (std::size_t c = 0; c < data.num_features(); ++c) {
                ASSERT_EQ(chunk.view.At(r, c), data.At(global, c))
                    << "row " << global << " col " << c;
            }
        }
        rows_seen += chunk.view.rows();
    }
    ASSERT_EQ(rows_seen, num_rows);
    for (std::size_t r = 0; r < num_rows; ++r) {
        ASSERT_EQ(table.Label(r), data.Label(r)) << "label " << r;
    }
}

/** Reads the whole page file into memory. */
std::vector<std::uint8_t>
FileBytes(const std::string& path)
{
    std::ifstream file(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(file)),
        std::istreambuf_iterator<char>());
}

/** Page ids (excluding the meta slots 1/2) holding @p type on disk. */
std::vector<std::uint32_t>
PagesOfType(const std::string& path, PageType type)
{
    const std::vector<std::uint8_t> bytes = FileBytes(path);
    std::vector<std::uint32_t> ids;
    for (std::size_t off = 0; off + kPageSize <= bytes.size();
         off += kPageSize) {
        const auto* header = storage::HeaderOf(bytes.data() + off);
        const std::uint32_t id =
            static_cast<std::uint32_t>(off / kPageSize);
        if (id > 2 &&
            header->type == static_cast<std::uint16_t>(type)) {
            ids.push_back(id);
        }
    }
    return ids;
}

/** Flips one payload byte of page @p page_id behind the pager's back. */
void
CorruptPage(const std::string& path, std::uint32_t page_id)
{
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff off =
        static_cast<std::streamoff>(page_id) * kPageSize +
        static_cast<std::streamoff>(storage::kPageHeaderSize) + 4;
    file.seekg(off);
    const int byte = file.get();
    file.seekp(off);
    file.put(static_cast<char>(byte ^ 0xFF));
}

/** Heads parsed straight from one on-disk meta slot. */
struct MetaHeads {
    std::uint64_t generation = 0;
    std::uint32_t data_head = 0;
    std::uint32_t label_head = 0;
    std::uint32_t zone_head = 0;
    std::uint32_t free_head = 0;
};

MetaHeads
ReadMetaHeads(const std::string& path, std::uint32_t slot)
{
    const std::vector<std::uint8_t> bytes = FileBytes(path);
    const std::uint8_t* payload = storage::PayloadOf(
        bytes.data() + static_cast<std::size_t>(slot) * kPageSize);
    MetaHeads heads;
    // Meta payload: u64 gen, u64 rows, u32 cols, u32 label_col,
    // u32 rows_per_page, then the four chain heads.
    std::memcpy(&heads.generation, payload, 8);
    std::memcpy(&heads.data_head, payload + 28, 4);
    std::memcpy(&heads.label_head, payload + 32, 4);
    std::memcpy(&heads.zone_head, payload + 36, 4);
    std::memcpy(&heads.free_head, payload + 40, 4);
    return heads;
}

/** The meta slot (1 or 2) holding the newest committed generation. */
std::uint32_t
NewestMetaSlot(const std::string& path)
{
    return ReadMetaHeads(path, 1).generation >=
                   ReadMetaHeads(path, 2).generation
               ? 1u
               : 2u;
}

// -------------------------------------------------- commit protocol --

TEST_F(RecoveryTest, CreateCommitsGenerationOneAndFlushAdvances)
{
    const Dataset data = MakeHiggs(60, 80);
    const std::string path = Path("t.dbpages");
    auto table = MakeTable(path, data, SmallPages());
    // Create() commits generation 1; the loaded-then-flushed table is 2.
    EXPECT_EQ(table->generation(), 2u);

    AppendRows(*table, data, 0, 10);  // any rows; just advance the gen
    table->Flush();
    EXPECT_EQ(table->generation(), 3u);
    // Flush with nothing dirty is a no-op, not a new generation.
    table->Flush();
    EXPECT_EQ(table->generation(), 3u);
    table.reset();

    auto reopened = PagedTable::Open(path, SmallPages());
    EXPECT_EQ(reopened->generation(), 3u);
    EXPECT_EQ(reopened->num_rows(), 70u);
    const RecoveryReport report = reopened->last_recovery();
    EXPECT_FALSE(report.rolled_back);
    EXPECT_EQ(report.corrupt_meta_slots, 0u);
}

TEST_F(RecoveryTest, FsyncModeIssuesRealBarriers)
{
    const Dataset data = MakeHiggs(40, 81);
    StorageOptions options = SmallPages();
    options.sync_mode = SyncMode::kFsync;
    auto table = MakeTable(Path("t.dbpages"), data, options);
    // Each commit barriers twice (chains, then meta).
    EXPECT_GE(table->Stats().pager.syncs, 4u);
    ExpectRowsBitIdentical(*table, data, 40);
}

TEST_F(RecoveryTest, RecoverIsIdempotent)
{
    const Dataset data = MakeHiggs(80, 82);
    const std::string path = Path("t.dbpages");
    { MakeTable(path, data, SmallPages()); }

    // First open after a clean shutdown: recovery runs, finds nothing.
    {
        auto table = PagedTable::Open(path, SmallPages());
        EXPECT_EQ(table->last_recovery().orphans_reclaimed, 0u);
        const RecoveryReport again = table->Recover();
        EXPECT_FALSE(again.performed);
        EXPECT_EQ(again.orphans_reclaimed, 0u);
    }
    const std::vector<std::uint8_t> first = FileBytes(path);

    // Second open: no writes — the file bytes are untouched.
    {
        auto table = PagedTable::Open(path, SmallPages());
        EXPECT_EQ(table->Stats().pager.writes, 0u);
        ExpectRowsBitIdentical(*table, data, 80);
    }
    const std::vector<std::uint8_t> second = FileBytes(path);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(0, std::memcmp(first.data(), second.data(), first.size()));
}

TEST_F(RecoveryTest, CommitCyclesReuseFreedChainPages)
{
    const Dataset data = MakeHiggs(120, 83);
    const std::string path = Path("t.dbpages");
    auto table = MakeTable(path, data, SmallPages());

    // Superseded chain generations go onto the free list and are
    // reused, so commit-only churn does not leak pages: growth over
    // many single-row commits stays near the true data growth.
    AppendRows(*table, data, 0, 1);
    table->Flush();
    const auto baseline = std::filesystem::file_size(path);
    for (int cycle = 0; cycle < 12; ++cycle) {
        AppendRows(*table, data, 0, 1);
        table->Flush();
    }
    const auto grown = std::filesystem::file_size(path);
    // 12 rows fit in ~4 new data pages; allow shadow-copy slack.
    EXPECT_LE(grown, baseline + 8 * kPageSize);
    EXPECT_GT(table->Stats().recovery.pages_reused, 0u);
    // The original rows survived all the churn.
    EXPECT_EQ(table->num_rows(), 133u);
    for (std::size_t r : {std::size_t{0}, std::size_t{60}, std::size_t{119}}) {
        EXPECT_EQ(table->Feature(r, 3), data.At(r, 3));
        EXPECT_EQ(table->Label(r), data.Label(r));
    }
    EXPECT_EQ(table->Feature(132, 0), data.At(0, 0));
}

TEST_F(RecoveryTest, AFreeListTheDrawDrainsFreesNoLivePage)
{
    // An unlabeled empty table with one orphan page: recovery's commit
    // draws the free-list chain page from a free set of one, which
    // leaves nothing to record. That page is then free but in no chain,
    // so once an append reuses it, no later commit may free it again.
    const std::string path = Path("t.dbpages");
    const float rows[4][2] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
    {
        auto table = PagedTable::Create(path, {"a", "b"}, 2, SmallPages());
        table->AppendRow(rows[0], 2, 0.0f);  // never committed
    }
    auto table = PagedTable::Open(path, SmallPages());
    EXPECT_EQ(table->last_recovery().orphans_reclaimed, 1u);
    table->AppendRow(rows[0], 2, 0.0f);
    table->AppendRow(rows[1], 2, 0.0f);
    table->Flush();
    // Both appends shadow-copy the committed data page.
    table->AppendRow(rows[2], 2, 0.0f);
    table->AppendRow(rows[3], 2, 0.0f);
    table->Flush();
    auto expect_rows = [&rows](const PagedTable& t) {
        ASSERT_EQ(t.num_rows(), 4u);
        for (std::size_t r = 0; r < 4; ++r) {
            for (std::size_t c = 0; c < 2; ++c) {
                EXPECT_EQ(t.Feature(r, c), rows[r][c])
                    << "row " << r << " col " << c;
            }
        }
    };
    expect_rows(*table);
    table.reset();
    expect_rows(*PagedTable::Open(path, SmallPages()));
}

TEST_F(RecoveryTest, ScrubReportsCleanTableAndCountsPages)
{
    const Dataset data = MakeHiggs(60, 84);
    auto table = MakeTable(Path("t.dbpages"), data, SmallPages());
    const ScrubReport report = table->Scrub();
    EXPECT_TRUE(report.clean());
    // Superblock + meta slot + chains + data + labels.
    EXPECT_GT(report.pages_checked,
              static_cast<std::uint64_t>(table->NumDataPages()));
    EXPECT_EQ(table->Stats().recovery.scrubs, 1u);
    EXPECT_EQ(table->Stats().recovery.scrub_corruptions, 0u);
}

// ------------------------------------------------ crash-point matrix --

struct CrashCase {
    fault::FaultSite site;
    std::uint64_t nth;
};

TEST_F(RecoveryCrashTest, CrashMatrixRecoversToCommittedGeneration)
{
    const Dataset data = MakeHiggs(120, 85);
    constexpr std::size_t kBaseRows = 80;
    const CrashCase kMatrix[] = {
        {fault::FaultSite::kStorageWrite, 1},
        {fault::FaultSite::kStorageWrite, 2},
        {fault::FaultSite::kStorageWrite, 5},
        {fault::FaultSite::kStorageSync, 1},
        {fault::FaultSite::kStorageSync, 2},
        {fault::FaultSite::kMetaCommit, 1},
    };
    for (const CrashCase& c : kMatrix) {
        SCOPED_TRACE(std::string(fault::FaultSiteName(c.site)) + " nth=" +
                     std::to_string(c.nth));
        const std::string path =
            Path(std::string("t_") + fault::FaultSiteName(c.site) + "_" +
                 std::to_string(c.nth) + ".dbpages");

        std::vector<std::string> columns;
        for (std::size_t c = 0; c < data.num_features(); ++c) {
            columns.push_back("f" + std::to_string(c));
        }
        columns.push_back("label");
        auto table = PagedTable::Create(path, columns, data.num_features(),
                                        SmallPages());
        AppendRows(*table, data, 0, kBaseRows);
        table->Flush();
        const std::uint64_t committed = table->generation();

        // Kill the pager mid-commit at the Nth operation of the site.
        AppendRows(*table, data, kBaseRows, data.num_rows());
        {
            fault::FaultPlan plan;
            plan.seed = 85;
            plan.At(c.site).every_nth = c.nth;
            fault::ScopedFaultPlan scoped(plan);
            EXPECT_THROW(table->Flush(), fault::FaultInjected);
            // The crashed pager rejects everything after the kill.
            EXPECT_THROW(table->Flush(), IoError);
        }
        table.reset();  // teardown must not "repair" the crash

        // Reopen: recovery lands on a committed generation. A crash
        // after the meta-slot write (the second barrier) legitimately
        // leaves the *new* generation committed, so either row count
        // is legal — but whichever wins, every row it claims is
        // bit-identical. (The generation *number* may exceed
        // `committed` either way: reclaiming the crash debris is
        // itself a commit.)
        auto reopened = PagedTable::Open(path, SmallPages());
        const std::uint64_t rows = reopened->num_rows();
        ASSERT_TRUE(rows == kBaseRows || rows == data.num_rows())
            << "recovered to " << rows << " rows";
        EXPECT_GE(reopened->generation(), committed);
        ExpectRowsBitIdentical(*reopened,  data,
                               static_cast<std::size_t>(rows));
        EXPECT_EQ(reopened->Stats().recovery.recoveries, 1u);
        // A crash before the commit point must roll back to the base.
        if (c.site == fault::FaultSite::kMetaCommit) {
            EXPECT_EQ(rows, kBaseRows);
        }
        // And the recovered table keeps working: append + commit.
        AppendRows(*reopened, data, 0, 4);
        reopened->Flush();
        EXPECT_EQ(reopened->num_rows(), rows + 4);
    }
}

TEST_F(RecoveryCrashTest, TornMetaCommitRollsBackOneGeneration)
{
    const Dataset data = MakeHiggs(100, 86);
    const std::string path = Path("t.dbpages");
    auto table = MakeTable(path, data, SmallPages());
    const std::uint64_t committed = table->generation();

    AppendRows(*table, data, 0, 20);
    {
        fault::FaultPlan plan;
        plan.seed = 86;
        plan.At(fault::FaultSite::kMetaCommit).every_nth = 1;
        fault::ScopedFaultPlan scoped(plan);
        EXPECT_THROW(table->Flush(), fault::FaultInjected);
        EXPECT_GE(table->Stats().pager.torn_writes, 1u);
    }
    table.reset();

    auto reopened = PagedTable::Open(path, SmallPages());
    EXPECT_GE(reopened->generation(), committed);
    const RecoveryReport report = reopened->last_recovery();
    EXPECT_TRUE(report.rolled_back);
    EXPECT_GE(report.corrupt_meta_slots, 1u);
    EXPECT_TRUE(report.performed);
    EXPECT_EQ(reopened->Stats().recovery.rollbacks, 1u);
    ExpectRowsBitIdentical(*reopened, data, 100);
}

TEST_F(RecoveryCrashTest, FlushFailuresAreCountedNotSwallowed)
{
    storage::Pager::Options options;
    options.create = true;
    options.page_size = kPageSize;
    storage::Pager pager(Path("t.dbpages"), options);
    storage::BufferPool pool(pager, storage::BufferPool::Options{4});
    const std::uint32_t id = pager.Alloc(PageType::kFeatures);
    {
        storage::PageHandle handle = pool.Pin(id);
        handle.MutablePayload()[0] = 0x42;  // dirty the frame
    }
    fault::FaultPlan plan;
    plan.seed = 87;
    plan.At(fault::FaultSite::kStorageWrite).every_nth = 1;
    fault::ScopedFaultPlan scoped(plan);
    EXPECT_THROW(pool.FlushAll(), fault::FaultInjected);
    // The write-back that could not complete was counted, not lost.
    EXPECT_GE(pool.stats().flush_failures, 1u);
}

TEST_F(RecoveryCrashTest, RepeatedCrashRecoverCyclesBoundFileGrowth)
{
    const Dataset data = MakeHiggs(160, 88);
    const std::string path = Path("t.dbpages");
    { MakeTable(path, data, SmallPages()); }

    constexpr int kCycles = 10;
    std::vector<std::uintmax_t> sizes;
    std::uint64_t total_reused = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        auto table = PagedTable::Open(path, SmallPages());
        ExpectRowsBitIdentical(*table, data, 160);
        AppendRows(*table, data, 0, 8);  // lost at the crash below
        {
            fault::FaultPlan plan;
            plan.seed = 88 + cycle;
            plan.At(fault::FaultSite::kStorageWrite).every_nth = 3;
            fault::ScopedFaultPlan scoped(plan);
            EXPECT_THROW(table->Flush(), fault::FaultInjected);
        }
        total_reused += table->Stats().recovery.pages_reused;
        table.reset();
        sizes.push_back(std::filesystem::file_size(path));
    }
    // The free pool grows for the first few cycles (dead chains join
    // it), then every cycle reuses what the previous one freed: the
    // file size must plateau, not grow without bound.
    EXPECT_GT(total_reused, 0u);
    EXPECT_EQ(sizes[kCycles - 1], sizes[kCycles - 2]);
    EXPECT_EQ(sizes[kCycles - 1], sizes[kCycles - 3]);
    EXPECT_LE(sizes[kCycles - 1], 2 * sizes[0]);

    // And the final state still recovers to clean, identical data.
    auto table = PagedTable::Open(path, SmallPages());
    ExpectRowsBitIdentical(*table, data, 160);
    EXPECT_TRUE(table->Scrub().clean());
}

// ------------------------------------------- torn writes per page kind --

TEST_F(RecoveryTornTest, TornNewestMetaSlotRollsBack)
{
    const Dataset data = MakeHiggs(90, 89);
    const std::string path = Path("t.dbpages");
    {
        auto table = MakeTable(path, data, SmallPages());
        AppendRows(*table, data, 0, 15);
        table->Flush();  // both slots now hold committed generations
    }
    CorruptPage(path, NewestMetaSlot(path));

    // The 105-row generation is gone; the 90-row one must be intact.
    auto table = PagedTable::Open(path, SmallPages());
    EXPECT_TRUE(table->last_recovery().rolled_back);
    EXPECT_EQ(table->last_recovery().corrupt_meta_slots, 1u);
    EXPECT_EQ(table->Stats().recovery.rollbacks, 1u);
    ExpectRowsBitIdentical(*table, data, 90);
}

TEST_F(RecoveryTornTest, BothMetaSlotsTornIsDataCorruption)
{
    const Dataset data = MakeHiggs(50, 90);
    const std::string path = Path("t.dbpages");
    {
        auto table = MakeTable(path, data, SmallPages());
        AppendRows(*table, data, 0, 5);
        table->Flush();
    }
    CorruptPage(path, 1);
    CorruptPage(path, 2);
    EXPECT_THROW(PagedTable::Open(path, SmallPages()), DataCorruption);
}

TEST_F(RecoveryTornTest, TornDirectoryPageRollsBackOneGeneration)
{
    const Dataset data = MakeHiggs(80, 91);
    const std::string path = Path("t.dbpages");
    {
        auto table = MakeTable(path, data, SmallPages());
        AppendRows(*table, data, 0, 12);
        table->Flush();  // 92-row generation on top of the 80-row one
    }
    // Tear the newest generation's directory chain: its (valid) meta
    // slot now points at garbage, so recovery must skip it and adopt
    // the previous generation instead of silently serving junk.
    const MetaHeads newest = ReadMetaHeads(path, NewestMetaSlot(path));
    ASSERT_NE(newest.data_head, 0u);
    CorruptPage(path, newest.data_head);

    auto table = PagedTable::Open(path, SmallPages());
    EXPECT_TRUE(table->last_recovery().rolled_back);
    ExpectRowsBitIdentical(*table, data, 80);
}

TEST_F(RecoveryTornTest, TornZoneMapPageRollsBackOneGeneration)
{
    const Dataset data = MakeHiggs(80, 92);
    const std::string path = Path("t.dbpages");
    {
        auto table = MakeTable(path, data, SmallPages());
        AppendRows(*table, data, 0, 12);
        table->Flush();
    }
    const MetaHeads newest = ReadMetaHeads(path, NewestMetaSlot(path));
    ASSERT_NE(newest.zone_head, 0u);
    CorruptPage(path, newest.zone_head);

    auto table = PagedTable::Open(path, SmallPages());
    EXPECT_TRUE(table->last_recovery().rolled_back);
    ExpectRowsBitIdentical(*table, data, 80);
}

TEST_F(RecoveryTornTest, TornDirectoryWithNoSurvivorIsDataCorruption)
{
    const Dataset data = MakeHiggs(80, 97);
    const std::string path = Path("t.dbpages");
    { MakeTable(path, data, SmallPages()); }
    // Kill both escape hatches: the newest generation's directory AND
    // the older meta slot. Nothing loadable remains, and the open must
    // say so loudly instead of serving an empty table.
    const std::uint32_t newest_slot = NewestMetaSlot(path);
    const MetaHeads newest = ReadMetaHeads(path, newest_slot);
    ASSERT_NE(newest.data_head, 0u);
    CorruptPage(path, newest.data_head);
    CorruptPage(path, newest_slot == 1 ? 2 : 1);
    EXPECT_THROW(PagedTable::Open(path, SmallPages()), DataCorruption);
}

TEST_F(RecoveryTornTest, TornDataPageSurfacesLazilyAndScrubFindsIt)
{
    const Dataset data = MakeHiggs(80, 93);
    const std::string path = Path("t.dbpages");
    { MakeTable(path, data, SmallPages()); }
    const auto pages = PagesOfType(path, PageType::kFeatures);
    ASSERT_GT(pages.size(), 2u);
    const std::uint32_t victim = pages[1];
    CorruptPage(path, victim);

    // Data pages are read lazily: the open succeeds...
    auto table = PagedTable::Open(path, SmallPages());
    EXPECT_EQ(table->num_rows(), 80u);
    // ...the scrub pinpoints exactly the torn page...
    const ScrubReport report = table->Scrub();
    ASSERT_EQ(report.corrupt_pages.size(), 1u);
    EXPECT_EQ(report.corrupt_pages.front(), victim);
    EXPECT_EQ(table->Stats().recovery.scrub_corruptions, 1u);
    // ...and reading through it still fails loudly, typed.
    FeatureStream stream = table->Scan();
    StreamChunk chunk;
    EXPECT_THROW(
        while (stream.Next(chunk)) { (void)chunk.view.At(0, 0); },
        DataCorruption);
}

// ------------------------------------------------------ dbms wiring --

TEST_F(RecoveryDbmsTest, SpStorageRecoverAndScrubProcs)
{
    const Dataset data = MakeHiggs(100, 94);
    Database db;
    db.StoreDatasetPaged("paged", data, Path("t.dbpages"), SmallPages());
    db.StoreDataset("mem", data);  // skipped by both procs

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    QueryEngine engine(db, pipeline);

    auto col = [](const QueryResult& result, const std::string& name) {
        for (std::size_t c = 0; c < result.columns.size(); ++c) {
            if (result.columns[c] == name) {
                return c;
            }
        }
        throw std::out_of_range(name);
    };

    QueryResult recover =
        engine.Execute("EXEC sp_storage_recover @table = 'paged'");
    ASSERT_EQ(recover.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(recover.rows[0][col(recover, "table")]),
              "paged");
    EXPECT_GE(std::get<std::int64_t>(
                  recover.rows[0][col(recover, "generation")]),
              1);
    EXPECT_EQ(std::get<std::int64_t>(
                  recover.rows[0][col(recover, "orphans_reclaimed")]),
              0);

    QueryResult scrub = engine.Execute("EXEC sp_storage_scrub");
    ASSERT_EQ(scrub.rows.size(), 1u);  // the in-memory table is skipped
    EXPECT_GT(std::get<std::int64_t>(
                  scrub.rows[0][col(scrub, "pages_checked")]),
              0);
    EXPECT_EQ(std::get<std::int64_t>(
                  scrub.rows[0][col(scrub, "corrupt_pages")]),
              0);

    QueryResult stats =
        engine.Execute("EXEC sp_storage_stats @table = 'paged'");
    ASSERT_EQ(stats.rows.size(), 1u);
    EXPECT_GE(std::get<std::int64_t>(
                  stats.rows[0][col(stats, "generation")]),
              1);
    EXPECT_GE(std::get<std::int64_t>(
                  stats.rows[0][col(stats, "recoveries")]),
              1);  // sp_storage_recover above counted one
}

TEST_F(RecoveryDbmsTest, CrashedCommitAttachScoresBitIdentical)
{
    const Dataset data = MakeHiggs(200, 95);
    ForestTrainerConfig config;
    config.num_trees = 6;
    config.max_depth = 7;
    config.seed = 95;
    const RandomForest forest = TrainForest(data, config);

    // Commit the real dataset, then die mid-way through committing a
    // batch of junk appends.
    const std::string path = Path("t.dbpages");
    {
        auto table = MakeTable(path, data, SmallPages());
        std::vector<float> junk(data.num_features(), 1e9F);
        for (int r = 0; r < 40; ++r) {
            table->AppendRow(junk.data(), junk.size(), -1.0F);
        }
        fault::FaultPlan plan;
        plan.seed = 95;
        plan.At(fault::FaultSite::kMetaCommit).every_nth = 1;
        fault::ScopedFaultPlan scoped(plan);
        EXPECT_THROW(table->Flush(), fault::FaultInjected);
    }

    // Recovery-aware attach rolls back to the committed dataset, and
    // the paged scoring path is bit-identical to in-memory.
    Database db;
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    db.StoreDataset("mem", data);
    Table& attached = db.AttachPagedTable("paged", path, SmallPages());
    ASSERT_TRUE(attached.paged());
    EXPECT_TRUE(attached.store()->last_recovery().rolled_back);
    EXPECT_EQ(attached.NumRows(), 200u);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    const auto mem =
        pipeline.RunScoringQuery("m", "mem", BackendKind::kCpuSklearn);
    const auto out =
        pipeline.RunScoringQuery("m", "paged", BackendKind::kCpuSklearn);
    ASSERT_EQ(out.predictions.size(), mem.predictions.size());
    EXPECT_EQ(0, std::memcmp(out.predictions.data(), mem.predictions.data(),
                             mem.predictions.size() * sizeof(float)));
    EXPECT_EQ(out.predictions, forest.PredictBatch(data));
}

TEST_F(RecoveryDbmsTest, ScrubOnAttachFailsLoudlyOnCorruptFile)
{
    const Dataset data = MakeHiggs(60, 96);
    const std::string path = Path("t.dbpages");
    { MakeTable(path, data, SmallPages()); }

    StorageOptions options = SmallPages();
    options.scrub_on_attach = true;
    {
        // Clean file: scrub-on-attach passes.
        Database db;
        Table& table = db.AttachPagedTable("paged", path, options);
        EXPECT_EQ(table.NumRows(), 60u);
    }
    const auto pages = PagesOfType(path, PageType::kFeatures);
    ASSERT_FALSE(pages.empty());
    CorruptPage(path, pages.front());
    Database db;
    EXPECT_THROW(db.AttachPagedTable("paged", path, options),
                 DataCorruption);
}

}  // namespace
}  // namespace dbscore

/**
 * @file
 * Tests for dbscore::storage — the out-of-core paged data plane — and
 * its integration with the DBMS layer:
 *
 *  - Pager: alloc/write/read round-trips, superblock page-size
 *    adoption, and corruption detection (a flipped byte on disk must
 *    surface as DataCorruption, never as bad feature values);
 *  - BufferPool: hit/miss accounting, LRU eviction order, the
 *    pinned-never-evicted invariant (CapacityError instead), and dirty
 *    write-back round-trips through eviction;
 *  - PagedTable: append/scan round-trips, persistence across
 *    Open(), zone-map pruning that provably reduces pages read, and
 *    zero-copy streaming (no RowBlock copy bytes after load);
 *  - fault injection at FaultSite::kStorageRead: transient faults are
 *    retried invisibly, sticky faults propagate, and a failed pool
 *    fill never leaves a garbage frame resident — on multi-page
 *    read-ahead runs too, where a fault fails only the pin that read
 *    the run;
 *  - an 8-thread concurrent scan+score chaos run (the TSan/ASan CI
 *    jobs run this suite);
 *  - DBMS wiring: paged scoring queries bit-identical to in-memory
 *    with a pool far smaller than the table, CSV bulk load,
 *    EXEC sp_storage_stats, and pinned chunks flowing into the
 *    serving layer.
 *
 * Every test writes its page files into a self-cleaning temp dir.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/data/csv_loader.h"
#include "dbscore/data/row_block.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/storage/buffer_pool.h"
#include "dbscore/storage/paged_table.h"
#include "dbscore/storage/pager.h"
#include "dbscore/trace/trace.h"

namespace dbscore {
namespace {

using storage::BufferPool;
using storage::FeatureStream;
using storage::PagedTable;
using storage::PageHandle;
using storage::Pager;
using storage::PageType;
using storage::ScanPredicate;
using storage::StorageOptions;
using storage::StreamChunk;

/** Self-cleaning scratch directory for page files. */
class StorageTest : public ::testing::Test {
 protected:
    void SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("dbscore_storage_") + info->test_suite_name() +
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

using PagerTest = StorageTest;
using BufferPoolTest = StorageTest;
using PagedTableTest = StorageTest;
using StorageFaultTest = StorageTest;
using StorageChaosTest = StorageTest;
using PagedDbmsTest = StorageTest;

// ------------------------------------------------------------ pager --

TEST_F(PagerTest, AllocWriteReadRoundTrip)
{
    Pager::Options options;
    options.create = true;
    options.page_size = 512;
    Pager pager(Path("t.dbpages"), options);
    EXPECT_EQ(pager.num_pages(), 1u);  // superblock

    const std::uint32_t id = pager.Alloc(PageType::kFeatures);
    EXPECT_EQ(id, 1u);
    std::vector<std::uint8_t> page(512);
    pager.Read(id, page.data());
    EXPECT_EQ(storage::HeaderOf(page.data())->page_id, id);

    storage::PayloadOf(page.data())[0] = 0xAB;
    storage::HeaderOf(page.data())->payload_bytes = 1;
    pager.Write(id, page.data());

    std::vector<std::uint8_t> back(512);
    pager.Read(id, back.data());
    EXPECT_EQ(storage::PayloadOf(back.data())[0], 0xAB);
    EXPECT_EQ(storage::HeaderOf(back.data())->payload_bytes, 1u);
    EXPECT_GE(pager.stats().reads, 2u);
    EXPECT_GE(pager.stats().writes, 2u);
}

TEST_F(PagerTest, ReopenAdoptsSuperblockPageSize)
{
    const std::string path = Path("t.dbpages");
    {
        Pager::Options options;
        options.create = true;
        options.page_size = 1024;
        Pager pager(path, options);
        pager.Alloc(PageType::kFeatures);
    }
    // Reopen with a different (ignored) requested size: the superblock
    // wins.
    Pager::Options reopen;
    reopen.page_size = 4096;
    Pager pager(path, reopen);
    EXPECT_EQ(pager.page_size(), 1024u);
    EXPECT_EQ(pager.num_pages(), 2u);
}

TEST_F(PagerTest, FlippedByteOnDiskIsDataCorruption)
{
    const std::string path = Path("t.dbpages");
    std::uint32_t id = 0;
    {
        Pager::Options options;
        options.create = true;
        options.page_size = 512;
        Pager pager(path, options);
        id = pager.Alloc(PageType::kFeatures);
        std::vector<std::uint8_t> page(512);
        pager.Read(id, page.data());
        std::memset(storage::PayloadOf(page.data()), 0x5A, 64);
        storage::HeaderOf(page.data())->payload_bytes = 64;
        pager.Write(id, page.data());
    }
    {
        // Flip one payload byte behind the pager's back (torn write /
        // bit rot).
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(static_cast<std::streamoff>(id) * 512 + 100);
        file.put(static_cast<char>(0xFF));
    }
    Pager pager(path, Pager::Options{});
    std::vector<std::uint8_t> page(512);
    EXPECT_THROW(pager.Read(id, page.data()), DataCorruption);
    EXPECT_GE(pager.stats().checksum_failures, 1u);
}

TEST_F(PagerTest, OutOfRangeReadThrows)
{
    Pager::Options options;
    options.create = true;
    Pager pager(Path("t.dbpages"), options);
    std::vector<std::uint8_t> page(pager.page_size());
    EXPECT_THROW(pager.Read(99, page.data()), InvalidArgument);
}

/** Flips one payload byte of page @p page_id behind the pager's back. */
void
FlipPayloadByte(const std::string& path, std::size_t page_size,
                std::uint32_t page_id)
{
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto off = static_cast<std::streamoff>(page_id * page_size +
                                                 storage::kPageHeaderSize);
    file.seekg(off);
    const int byte = file.get();
    file.seekp(off);
    file.put(static_cast<char>(byte ^ 0xFF));
}

/** A 512-byte-page file of @p pages feature pages whose payload byte 0
 * is the page id. */
void
WriteNumberedPages(Pager& pager, std::uint32_t pages)
{
    std::vector<std::uint8_t> page(pager.page_size());
    for (std::uint32_t i = 0; i < pages; ++i) {
        const std::uint32_t id = pager.Alloc(PageType::kFeatures);
        pager.Read(id, page.data());
        storage::PayloadOf(page.data())[0] = static_cast<std::uint8_t>(id);
        storage::HeaderOf(page.data())->payload_bytes = 1;
        pager.Write(id, page.data());
    }
}

Pager::Options
Create512()
{
    Pager::Options options;
    options.create = true;
    options.page_size = 512;
    return options;
}

TEST_F(PagerTest, ReadRunRoundTrip)
{
    Pager pager(Path("t.dbpages"), Create512());
    WriteNumberedPages(pager, 6);
    pager.ResetStats();
    std::vector<std::vector<std::uint8_t>> pages(4,
                                                 std::vector<std::uint8_t>(512));
    std::uint8_t* bufs[4];
    for (std::size_t i = 0; i < 4; ++i) {
        bufs[i] = pages[i].data();
    }
    pager.ReadRun(2, 4, bufs);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(storage::HeaderOf(bufs[i])->page_id, 2 + i);
        EXPECT_EQ(storage::PayloadOf(bufs[i])[0], 2 + i);
    }
    EXPECT_EQ(pager.stats().reads, 4u);
    // Read is a run of one.
    std::vector<std::uint8_t> one(512);
    pager.Read(6, one.data());
    EXPECT_EQ(storage::PayloadOf(one.data())[0], 6);
    EXPECT_EQ(pager.stats().reads, 5u);
}

TEST_F(PagerTest, FlippedByteInsideARunNamesItsPage)
{
    const std::string path = Path("t.dbpages");
    {
        Pager pager(path, Create512());
        WriteNumberedPages(pager, 5);
    }
    FlipPayloadByte(path, 512, 3);
    Pager pager(path, Pager::Options{});
    std::vector<std::uint8_t> storage_bytes(3 * 512);
    std::uint8_t* bufs[3] = {storage_bytes.data(), storage_bytes.data() + 512,
                             storage_bytes.data() + 1024};
    try {
        pager.ReadRun(2, 3, bufs);
        ADD_FAILURE() << "a run over a corrupt page read clean";
    } catch (const DataCorruption& e) {
        EXPECT_NE(std::string(e.what()).find("page 3 failed"),
                  std::string::npos)
            << e.what();
    }
    // The run fails whole, and the pages around the bad one read clean.
    EXPECT_EQ(pager.stats().reads, 0u);
    EXPECT_EQ(pager.stats().checksum_failures, 1u);
    pager.ReadRun(4, 2, bufs);
    pager.Read(2, bufs[2]);
    EXPECT_EQ(pager.stats().reads, 3u);
}

TEST_F(PagerTest, RunPastTheEndOrOfBadLengthIsInvalidArgument)
{
    Pager pager(Path("t.dbpages"), Create512());
    WriteNumberedPages(pager, 3);  // pages 0..3
    pager.ResetStats();
    std::vector<std::uint8_t> bytes((storage::kMaxReadRun + 1) * 512);
    std::vector<std::uint8_t*> bufs;
    for (std::size_t i = 0; i <= storage::kMaxReadRun; ++i) {
        bufs.push_back(bytes.data() + i * 512);
    }
    EXPECT_THROW(pager.ReadRun(2, 3, bufs.data()), InvalidArgument);
    EXPECT_THROW(pager.ReadRun(4, 1, bufs.data()), InvalidArgument);
    EXPECT_THROW(pager.ReadRun(1, 0, bufs.data()), InvalidArgument);
    EXPECT_THROW(pager.ReadRun(0, storage::kMaxReadRun + 1, bufs.data()),
                 InvalidArgument);
    EXPECT_EQ(pager.stats().reads, 0u);
    pager.ReadRun(0, 4, bufs.data());
    EXPECT_EQ(pager.stats().reads, 4u);
}

/** Writes a one-page file whose superblock records @p version. */
void
WriteSuperblockFile(const std::string& path, std::uint32_t version)
{
    constexpr std::size_t kSize = 512;
    std::vector<std::uint8_t> page(kSize);
    storage::InitPage(page.data(), kSize, 0, PageType::kSuperblock);
    const std::uint32_t superblock[3] = {0x44425342u, version, kSize};
    std::memcpy(storage::PayloadOf(page.data()), superblock,
                sizeof(superblock));
    storage::HeaderOf(page.data())->payload_bytes = sizeof(superblock);
    storage::HeaderOf(page.data())->checksum =
        storage::ComputePageChecksum(page.data(), kSize);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(page.data()), kSize);
}

TEST_F(PagerTest, OtherFormatVersionsAreRefusedBeforeAnyChecksum)
{
    const std::string path = Path("t.dbpages");
    WriteSuperblockFile(path, storage::kPageFormatVersion);
    EXPECT_NO_THROW(Pager(path, Pager::Options{}));
    // Version 1 (FNV-1a checksums) and a version from the future each
    // name themselves and the version this build reads.
    for (const std::uint32_t version : {1u, 77u}) {
        WriteSuperblockFile(path, version);
        try {
            Pager pager(path, Pager::Options{});
            ADD_FAILURE() << "version " << version << " opened";
        } catch (const DataCorruption& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("format version " + std::to_string(version)),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("reads version " +
                                std::to_string(storage::kPageFormatVersion)),
                      std::string::npos)
                << what;
            EXPECT_EQ(what.find("integrity"), std::string::npos) << what;
        }
    }
}

// ------------------------------------------------------ buffer pool --

struct PoolFixture {
    Pager pager;
    BufferPool pool;

    PoolFixture(const std::string& path, std::size_t capacity,
                std::size_t pages)
        : pager(path,
                [] {
                    Pager::Options o;
                    o.create = true;
                    o.page_size = 512;
                    return o;
                }()),
          pool(pager, BufferPool::Options{capacity})
    {
        for (std::size_t i = 0; i < pages; ++i) {
            pager.Alloc(PageType::kFeatures);
        }
    }
};

TEST_F(BufferPoolTest, HitsAndMissesAreCounted)
{
    PoolFixture f(Path("t.dbpages"), 4, 2);
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(2); }
    EXPECT_EQ(f.pool.stats().misses, 2u);
    EXPECT_EQ(f.pool.stats().hits, 1u);
    EXPECT_EQ(f.pool.Resident(), 2u);
    EXPECT_NEAR(f.pool.stats().HitRatio(), 1.0 / 3.0, 1e-9);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyPinnedFirst)
{
    PoolFixture f(Path("t.dbpages"), 2, 3);
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(2); }
    { PageHandle h = f.pool.Pin(1); }  // 2 is now the LRU page
    { PageHandle h = f.pool.Pin(3); }  // must evict 2, not 1
    EXPECT_EQ(f.pool.stats().evictions, 1u);
    const std::uint64_t misses = f.pool.stats().misses;
    { PageHandle h = f.pool.Pin(1); }  // still resident -> hit
    EXPECT_EQ(f.pool.stats().misses, misses);
    { PageHandle h = f.pool.Pin(2); }  // was evicted -> miss
    EXPECT_EQ(f.pool.stats().misses, misses + 1);
}

TEST_F(BufferPoolTest, PinnedFramesAreNeverEvicted)
{
    PoolFixture f(Path("t.dbpages"), 2, 3);
    PageHandle a = f.pool.Pin(1);
    PageHandle b = f.pool.Pin(2);
    const std::uint8_t* a_data = a.data();
    EXPECT_EQ(f.pool.PinnedFrames(), 2u);
    EXPECT_THROW(f.pool.Pin(3), CapacityError);
    // The failed fill must not have displaced either pinned frame.
    EXPECT_EQ(f.pool.stats().evictions, 0u);
    EXPECT_EQ(a.data(), a_data);
    EXPECT_EQ(storage::HeaderOf(a.data())->page_id, 1u);
    b.Release();
    PageHandle c = f.pool.Pin(3);  // now there is a victim
    EXPECT_EQ(storage::HeaderOf(c.data())->page_id, 3u);
}

TEST_F(BufferPoolTest, DirtyFrameRoundTripsThroughEviction)
{
    PoolFixture f(Path("t.dbpages"), 1, 2);
    {
        PageHandle h = f.pool.Pin(1);
        std::memset(h.MutablePayload(), 0x7E, 16);
        storage::HeaderOf(h.MutableData())->payload_bytes = 16;
    }
    { PageHandle h = f.pool.Pin(2); }  // evicts 1, forcing write-back
    EXPECT_GE(f.pool.stats().write_backs, 1u);
    PageHandle back = f.pool.Pin(1);  // re-read from disk
    EXPECT_EQ(back.payload()[0], 0x7E);
    EXPECT_EQ(back.payload()[15], 0x7E);
    EXPECT_EQ(storage::HeaderOf(back.data())->payload_bytes, 16u);
}

TEST_F(BufferPoolTest, PinnedFrameAtTheLruHeadIsSkipped)
{
    PoolFixture f(Path("t.dbpages"), 3, 4);
    PageHandle held = f.pool.Pin(1);  // oldest pin, still held
    { PageHandle h = f.pool.Pin(2); }
    { PageHandle h = f.pool.Pin(3); }
    { PageHandle h = f.pool.Pin(4); }  // skips pinned 1, evicts 2
    EXPECT_EQ(f.pool.stats().evictions, 1u);
    EXPECT_EQ(storage::HeaderOf(held.data())->page_id, 1u);
    const std::uint64_t misses = f.pool.stats().misses;
    { PageHandle h = f.pool.Pin(3); }
    { PageHandle h = f.pool.Pin(4); }
    EXPECT_EQ(f.pool.stats().misses, misses);
    { PageHandle h = f.pool.Pin(2); }  // evicted -> miss
    EXPECT_EQ(f.pool.stats().misses, misses + 1);
}

TEST_F(BufferPoolTest, InvalidateAndFailedFillReturnTheirFrames)
{
    PoolFixture f(Path("t.dbpages"), 2, 3);
    { PageHandle h = f.pool.Pin(1); }
    { PageHandle h = f.pool.Pin(2); }
    f.pool.Invalidate(1);
    EXPECT_EQ(f.pool.Resident(), 1u);
    { PageHandle h = f.pool.Pin(3); }  // the invalidated frame, no victim
    EXPECT_EQ(f.pool.stats().evictions, 0u);
    EXPECT_EQ(f.pool.Resident(), 2u);

    // A fill that fails gives its victim frame back too.
    EXPECT_THROW(f.pool.Pin(99), InvalidArgument);  // past the file end
    EXPECT_EQ(f.pool.stats().evictions, 1u);
    EXPECT_EQ(f.pool.Resident(), 1u);
    EXPECT_EQ(f.pool.PinnedFrames(), 0u);
    PageHandle a = f.pool.Pin(1);  // the failed fill's frame, no victim
    PageHandle b = f.pool.Pin(3);  // still resident: a hit
    EXPECT_EQ(f.pool.stats().evictions, 1u);
    EXPECT_EQ(f.pool.PinnedFrames(), 2u);
    EXPECT_EQ(storage::HeaderOf(a.data())->page_id, 1u);
    EXPECT_EQ(storage::HeaderOf(b.data())->page_id, 3u);
}

/** The page-read spans recorded since the last Clear(). */
std::vector<trace::SpanRecord>
PageReadSpans()
{
    std::vector<trace::SpanRecord> reads;
    for (const trace::SpanRecord& span : trace::TraceCollector::Get().Spans()) {
        if (span.stage == trace::StageKind::kPageRead) {
            reads.push_back(span);
        }
    }
    return reads;
}

double
AttrOf(const trace::SpanRecord& span, const std::string& key)
{
    for (std::uint32_t a = 0; a < span.num_attrs; ++a) {
        if (key == span.attrs[a].key) {
            return span.attrs[a].value;
        }
    }
    ADD_FAILURE() << span.name << " has no attribute " << key;
    return -1.0;
}

TEST_F(BufferPoolTest, MissReadsItsRunWithOneVectoredRead)
{
    PoolFixture f(Path("t.dbpages"), 64, 10);  // runs of up to 8 pages
    f.pager.ResetStats();
    trace::TraceCollector::Get().Clear();
    { PageHandle h = f.pool.Pin(2, 6); }
    const std::vector<trace::SpanRecord> spans = PageReadSpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(AttrOf(spans[0], "page_id"), 2.0);
    EXPECT_EQ(AttrOf(spans[0], "pages"), 6.0);
    EXPECT_EQ(f.pager.stats().reads, 6u);
    EXPECT_EQ(f.pool.Resident(), 6u);
    EXPECT_EQ(f.pool.PinnedFrames(), 0u);
    // The pages read ahead are resident: pinning them reads nothing,
    // and each first pin counts the miss its read was.
    for (std::uint32_t id = 3; id <= 7; ++id) {
        PageHandle h = f.pool.Pin(id, 8);
        EXPECT_EQ(storage::HeaderOf(h.data())->page_id, id);
    }
    EXPECT_EQ(f.pager.stats().reads, 6u);
    EXPECT_EQ(f.pool.stats().misses, 6u);
    EXPECT_EQ(f.pool.stats().hits, 0u);
    { PageHandle h = f.pool.Pin(2); }  // pinned before: a hit
    EXPECT_EQ(f.pool.stats().hits + f.pool.stats().misses, 7u);
    // A run stops at a resident page: with 10 resident, a run of 3
    // from 8 reads 8 and 9.
    { PageHandle h = f.pool.Pin(10); }
    { PageHandle h = f.pool.Pin(8, 3); }
    EXPECT_EQ(f.pager.stats().reads, 9u);
    EXPECT_EQ(f.pool.Resident(), 9u);
    // Under 16 frames, a miss reads one page whatever the run.
    PoolFixture small(Path("s.dbpages"), 15, 10);
    small.pager.ResetStats();
    { PageHandle h = small.pool.Pin(1, 8); }
    EXPECT_EQ(small.pager.stats().reads, 1u);
    EXPECT_EQ(small.pool.Resident(), 1u);
}

TEST_F(BufferPoolTest, RunShortensInsteadOfThrowingAndAFailedRunIsDropped)
{
    // 32 frames (runs of up to 4): with 30 pages held, a run of 4 gets
    // the 2 frames left rather than a CapacityError.
    PoolFixture f(Path("t.dbpages"), 32, 40);
    std::vector<PageHandle> held;
    for (std::uint32_t id = 1; id <= 30; ++id) {
        held.push_back(f.pool.Pin(id));
    }
    f.pager.ResetStats();
    held.push_back(f.pool.Pin(31, 4));
    EXPECT_EQ(f.pager.stats().reads, 2u);
    EXPECT_EQ(f.pool.Resident(), 32u);
    held.push_back(f.pool.Pin(32));  // read ahead: no read
    EXPECT_EQ(f.pager.stats().reads, 2u);
    // The requested page itself still needs a frame.
    EXPECT_THROW(f.pool.Pin(33, 4), CapacityError);
    EXPECT_EQ(f.pool.Resident(), 32u);
    held.clear();

    // A run whose read fails leaves none of its pages resident; the
    // requested page is then read alone, and only a pin of the bad
    // page fails.
    const std::string path = Path("c.dbpages");
    PoolFixture c(path, 64, 10);
    FlipPayloadByte(path, 512, 4);
    c.pager.ResetStats();
    {
        PageHandle h = c.pool.Pin(2, 6);
        EXPECT_EQ(storage::HeaderOf(h.data())->page_id, 2u);
    }
    EXPECT_EQ(c.pool.Resident(), 1u);
    EXPECT_EQ(c.pager.stats().reads, 1u);
    EXPECT_EQ(c.pager.stats().checksum_failures, 1u);
    { PageHandle h = c.pool.Pin(3, 5); }
    EXPECT_EQ(c.pool.Resident(), 2u);
    EXPECT_THROW(c.pool.Pin(4, 4), DataCorruption);
    EXPECT_EQ(c.pool.Resident(), 2u);
    EXPECT_EQ(c.pool.PinnedFrames(), 0u);
    // Past the bad page, runs read whole again.
    { PageHandle h = c.pool.Pin(5, 5); }
    EXPECT_EQ(c.pool.Resident(), 7u);
    EXPECT_EQ(c.pager.stats().reads, 2u + 5u);
}

// ------------------------------------------------------ paged table --

StorageOptions
SmallPages()
{
    StorageOptions options;
    options.page_size = 512;  // 4 rows of 28 features per page
    options.pool_pages = 8;
    return options;
}

std::shared_ptr<PagedTable>
MakeHiggsTable(const std::string& path, const Dataset& data,
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

TEST_F(PagedTableTest, AppendScanRoundTripWithTinyPool)
{
    const Dataset data = MakeHiggs(200, 11);
    auto table = MakeHiggsTable(Path("t.dbpages"), data, SmallPages());
    ASSERT_EQ(table->num_rows(), 200u);
    EXPECT_GT(table->NumDataPages(), 8u);  // table >> pool

    // Point reads.
    EXPECT_EQ(table->Feature(137, 5), data.At(137, 5));
    EXPECT_EQ(table->Label(137), data.Label(137));

    // Full streamed scan reassembles every row in order.
    FeatureStream stream = table->Scan();
    EXPECT_EQ(stream.total_rows(), 200u);
    StreamChunk chunk;
    std::size_t rows_seen = 0;
    while (stream.Next(chunk)) {
        ASSERT_EQ(chunk.row_begin, rows_seen);
        for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
            const std::size_t global = chunk.row_begin + r;
            ASSERT_EQ(chunk.view.At(r, 3), data.At(global, 3))
                << "row " << global;
        }
        rows_seen += chunk.view.rows();
    }
    EXPECT_EQ(rows_seen, 200u);
}

TEST_F(PagedTableTest, StreamingIsZeroCopy)
{
    const Dataset data = MakeHiggs(100, 12);
    auto table = MakeHiggsTable(Path("t.dbpages"), data, SmallPages());
    RowBlock::ResetCopyStats();
    FeatureStream stream = table->Scan();
    StreamChunk chunk;
    float sink = 0.0f;
    while (stream.Next(chunk)) {
        sink += chunk.view.At(0, 0);
    }
    EXPECT_EQ(RowBlock::CopyStats().bytes, 0u) << "sink " << sink;
}

TEST_F(PagedTableTest, PinOutlivesStreamViaViewKeepalive)
{
    const Dataset data = MakeHiggs(50, 13);
    auto table = MakeHiggsTable(Path("t.dbpages"), data, SmallPages());
    RowView first_rows;
    {
        FeatureStream stream = table->Scan();
        StreamChunk chunk;
        ASSERT_TRUE(stream.Next(chunk));
        first_rows = chunk.view.Slice(0, 2);
    }  // stream gone; the slice's keepalive still pins the page
    EXPECT_EQ(first_rows.At(1, 1), data.At(1, 1));
}

TEST_F(PagedTableTest, PersistsAcrossOpen)
{
    const Dataset data = MakeHiggs(120, 14);
    const std::string path = Path("t.dbpages");
    { MakeHiggsTable(path, data, SmallPages()); }

    auto table = PagedTable::Open(path, SmallPages());
    ASSERT_EQ(table->num_rows(), 120u);
    EXPECT_EQ(table->num_feature_cols(), 28u);
    EXPECT_EQ(table->label_col(), 28u);
    EXPECT_TRUE(table->has_label());
    EXPECT_EQ(table->columns().front(), "f0");
    for (std::size_t r : {std::size_t{0}, std::size_t{63}, std::size_t{119}}) {
        for (std::size_t c = 0; c < 28; ++c) {
            ASSERT_EQ(table->Feature(r, c), data.At(r, c));
        }
        ASSERT_EQ(table->Label(r), data.Label(r));
    }
}

TEST_F(PagedTableTest, ZoneMapPruningReducesPagesRead)
{
    // Clustered table: feature 0 is the row index, so each page covers
    // a disjoint [min,max] range and a narrow predicate prunes all but
    // one page.
    StorageOptions options = SmallPages();
    options.pool_pages = 2;  // smaller than the table: drains hit disk
    std::vector<std::string> columns{"f0", "f1"};
    auto table = PagedTable::Create(Path("t.dbpages"), columns, 2, options);
    for (std::size_t r = 0; r < 400; ++r) {
        const float row[2] = {static_cast<float>(r), 0.5f};
        table->AppendRow(row, 2, 0.0f);
    }
    table->Flush();
    const std::size_t data_pages = table->NumDataPages();
    ASSERT_GT(data_pages, 4u);

    auto drain = [&](const std::optional<ScanPredicate>& pred) {
        table->ResetStats();
        FeatureStream stream = table->Scan(pred);
        StreamChunk chunk;
        std::size_t rows = 0;
        while (stream.Next(chunk)) {
            rows += chunk.view.rows();
        }
        return rows;
    };

    const std::size_t full_rows = drain(std::nullopt);
    EXPECT_EQ(full_rows, 400u);
    const std::uint64_t full_reads = table->Stats().pager.reads;
    EXPECT_EQ(table->Stats().pages_pruned, 0u);

    ScanPredicate pred;
    pred.column = 0;
    pred.min = 100.0f;
    pred.max = 101.0f;
    const std::size_t pruned_rows = drain(pred);
    const storage::StorageStats stats = table->Stats();
    // Conservative superset: the surviving pages contain every match.
    EXPECT_GE(pruned_rows, 2u);
    EXPECT_LT(pruned_rows, 400u);
    EXPECT_GT(stats.pages_pruned, 0u);
    EXPECT_EQ(stats.pages_pruned + stats.pages_scanned, data_pages);
    EXPECT_LT(stats.pager.reads, full_reads);

    // The zone map itself is queryable.
    const std::vector<storage::ZoneRange> zone = table->ZoneMap(0);
    ASSERT_EQ(zone.size(), 2u);
    EXPECT_EQ(zone[0].min, 0.0f);
    EXPECT_EQ(zone[1].min, 0.5f);
    EXPECT_EQ(zone[1].max, 0.5f);
}

TEST_F(PagedTableTest, PageReadSpansSumToThePagesRead)
{
    // 500 data pages of 4 rows, a label page about every 30; 64 frames
    // make runs of up to 8 pages.
    const Dataset data = MakeHiggs(2000, 17);
    StorageOptions options = SmallPages();
    options.pool_pages = 64;
    const std::string path = Path("t.dbpages");
    MakeHiggsTable(path, data, options);
    auto table = PagedTable::Open(path, options);  // a cold pool
    table->ResetStats();
    trace::TraceCollector::Get().Clear();
    FeatureStream stream = table->Scan();
    StreamChunk chunk;
    std::size_t rows = 0;
    while (stream.Next(chunk)) {
        rows += chunk.view.rows();
    }
    EXPECT_EQ(rows, 2000u);
    const storage::StorageStats stats = table->Stats();
    const std::vector<trace::SpanRecord> spans = PageReadSpans();
    double pages = 0.0;
    for (const trace::SpanRecord& span : spans) {
        pages += AttrOf(span, "pages");
        EXPECT_EQ(AttrOf(span, "bytes"), AttrOf(span, "pages") * 512);
    }
    EXPECT_EQ(pages, static_cast<double>(stats.pager.reads));
    EXPECT_EQ(stats.pager.reads, stats.data_pages);
    // The pool's miss spans carry the same runs.
    double missed = 0.0;
    for (const trace::SpanRecord& span : trace::TraceCollector::Get().Spans()) {
        if (span.stage == trace::StageKind::kBufferPool) {
            missed += AttrOf(span, "pages");
        }
    }
    EXPECT_EQ(missed, static_cast<double>(stats.pool.misses));
    EXPECT_LE(spans.size(), stats.data_pages / 4);  // runs, not pages
    EXPECT_EQ(stats.pool.misses, stats.pager.reads);
    EXPECT_EQ(stats.pool.hits + stats.pool.misses, stats.pages_scanned);
}

TEST_F(PagedTableTest, RejectsRowWiderThanPage)
{
    StorageOptions options;
    options.page_size = 256;  // payload 232 bytes < 100 floats
    std::vector<std::string> columns(101, "c");
    EXPECT_THROW(
        PagedTable::Create(Path("t.dbpages"), columns, 100, options),
        CapacityError);
}

TEST_F(PagedTableTest, RejectsZoneEntryWiderThanChainPage)
{
    // A 256-byte page leaves 224 bytes of chain payload after a chain
    // page's next id and entry count. A 30-feature row (120 bytes) fits
    // a data page, but its zone-map entry (240 bytes) fits no chain
    // page, so no commit could ever write the table's zone map.
    StorageOptions options;
    options.page_size = 256;
    options.pool_pages = 8;
    EXPECT_THROW(PagedTable::Create(Path("wide.dbpages"),
                                    std::vector<std::string>(31, "c"), 30,
                                    options),
                 CapacityError);

    // 28 features make a 224-byte entry: one per chain page.
    constexpr std::size_t kFeatures = 28;
    const std::string path = Path("t.dbpages");
    std::vector<float> row(kFeatures);
    auto value = [](std::size_t r, std::size_t c) {
        return static_cast<float>(r * 100 + c);
    };
    {
        auto table = PagedTable::Create(
            path, std::vector<std::string>(kFeatures + 1, "c"), kFeatures,
            options);
        for (std::size_t r = 0; r < 5; ++r) {
            for (std::size_t c = 0; c < kFeatures; ++c) {
                row[c] = value(r, c);
            }
            table->AppendRow(row.data(), kFeatures, static_cast<float>(r));
        }
        table->Flush();
    }
    auto table = PagedTable::Open(path, options);
    ASSERT_EQ(table->num_rows(), 5u);
    EXPECT_EQ(table->NumDataPages(), 3u);  // two rows per page
    for (std::size_t r = 0; r < 5; ++r) {
        for (std::size_t c = 0; c < kFeatures; ++c) {
            ASSERT_EQ(table->Feature(r, c), value(r, c));
        }
        ASSERT_EQ(table->Label(r), static_cast<float>(r));
    }
}

/** FNV-1a 64 over every byte of the file at @p path. */
std::uint64_t
FileDigest(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    char byte = 0;
    while (in.get(byte)) {
        hash = (hash ^ static_cast<std::uint8_t>(byte)) * 0x100000001b3ull;
    }
    return hash;
}

TEST_F(PagedTableTest, RejectedCreateLeavesThePathUntouched)
{
    // Every schema check precedes the pager's truncating open, so a
    // Create that throws leaves the committed table at its path byte
    // for byte, and a rejected Create at a fresh path makes no file.
    StorageOptions options;
    options.page_size = 256;  // two 28-feature rows per page
    options.pool_pages = 8;
    const Dataset data = MakeHiggs(100, 38);
    const std::string path = Path("kept.dbpages");
    MakeHiggsTable(path, data, options);
    const std::uint64_t digest = FileDigest(path);

    const std::string fresh = Path("fresh.dbpages");
    for (const std::string& at : {path, fresh}) {
        // 100 features do not fit a 232-byte page payload.
        EXPECT_THROW(PagedTable::Create(at, std::vector<std::string>(101, "c"),
                                        100, options),
                     CapacityError);
        // The label is the only column: no feature column.
        EXPECT_THROW(PagedTable::Create(at, {"label"}, 0, options),
                     InvalidArgument);
    }
    EXPECT_FALSE(std::filesystem::exists(fresh));
    EXPECT_EQ(FileDigest(path), digest);

    auto table = PagedTable::Open(path, options);
    ASSERT_EQ(table->num_rows(), data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        for (std::size_t c = 0; c < data.num_features(); ++c) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(table->Feature(r, c)),
                      std::bit_cast<std::uint32_t>(data.Row(r)[c]))
                << "row " << r << " column " << c;
        }
        ASSERT_EQ(std::bit_cast<std::uint32_t>(table->Label(r)),
                  std::bit_cast<std::uint32_t>(data.Label(r)))
            << "row " << r;
    }
}

/**
 * Writes a page file by one fixed sequence: four commits of appends,
 * then three cycles of reopen, append, Flush(), append and Recover()
 * (which commits the second append). Every commit rewrites the chains
 * into pages earlier commits freed. Returns the pages the last cycle
 * took from the free list.
 */
std::uint64_t
WriteFixedPageFile(const std::string& path, std::size_t page_size,
                   std::size_t features)
{
    StorageOptions options;
    options.page_size = page_size;
    options.pool_pages = 16;
    std::vector<std::string> columns;
    for (std::size_t c = 0; c < features; ++c) {
        columns.push_back(std::string("f").append(std::to_string(c)));
    }
    columns.emplace_back("label");
    std::uint64_t row = 0;
    std::vector<float> values(features);
    auto append = [&](PagedTable& table, std::size_t rows) {
        for (std::size_t i = 0; i < rows; ++i, ++row) {
            for (std::size_t c = 0; c < features; ++c) {
                values[c] = static_cast<float>((row * (c + 3)) % 101) * 0.5f -
                            static_cast<float>(c);
            }
            table.AppendRow(values.data(), features,
                            static_cast<float>(row % 3));
        }
    };
    auto table = PagedTable::Create(path, columns, features, options);
    for (const std::size_t rows : {700, 350, 211, 90}) {
        append(*table, rows);
        table->Flush();
    }
    for (const std::size_t rows : {120, 75, 33}) {
        table.reset();
        table = PagedTable::Open(path, options);
        append(*table, rows);
        table->Flush();
        append(*table, rows / 3);
        table->Recover();
    }
    return table->Stats().recovery.pages_reused;
}

TEST_F(PagedTableTest, PageFilesKeepTheirBytes)
{
    // Sizes and digests of the files this sequence writes at format
    // version 2. A change to the page format must change them and bump
    // storage::kPageFormatVersion.
    struct Golden {
        std::size_t page_size;
        std::size_t features;
        std::uintmax_t bytes;
        std::uint64_t digest;
    };
    const Golden goldens[] = {
        {256, 3, 38400, 0x6efe8acf77fe87b3ull},
        {256, 28, 658944, 0xadffbdd0b3b12e4aull},
        {4096, 3, 81920, 0x3f5e7df6fa00051bull},
        {4096, 28, 266240, 0x017461f52864e208ull},
    };
    for (const Golden& golden : goldens) {
        const std::string path =
            Path(std::to_string(golden.page_size) + "_" +
                 std::to_string(golden.features) + ".dbpages");
        const std::uint64_t reused =
            WriteFixedPageFile(path, golden.page_size, golden.features);
        EXPECT_GT(reused, 0u);
        const std::uint64_t digest = FileDigest(path);
        EXPECT_EQ(std::filesystem::file_size(path), golden.bytes)
            << golden.page_size << " B pages, " << golden.features
            << " features";
        EXPECT_EQ(digest, golden.digest)
            << golden.page_size << " B pages, " << golden.features
            << " features";
    }
}

// -------------------------------------------------- fault injection --

TEST_F(StorageFaultTest, TransientReadFaultsAreRetriedInvisibly)
{
    const Dataset data = MakeHiggs(60, 15);
    const std::string path = Path("t.dbpages");
    { MakeHiggsTable(path, data, SmallPages()); }

    fault::FaultPlan plan;
    plan.seed = 7;
    plan.At(fault::FaultSite::kStorageRead).every_nth = 3;
    fault::ScopedFaultPlan scoped(plan);

    StorageOptions options = SmallPages();
    options.pool_pages = 2;  // force repeated re-reads
    auto table = PagedTable::Open(path, options);
    FeatureStream stream = table->Scan();
    StreamChunk chunk;
    std::size_t rows = 0;
    while (stream.Next(chunk)) {
        for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
            ASSERT_EQ(chunk.view.At(r, 0),
                      data.At(chunk.row_begin + r, 0));
        }
        rows += chunk.view.rows();
    }
    EXPECT_EQ(rows, 60u);
    EXPECT_GT(table->Stats().pager.read_retries, 0u);
}

TEST_F(StorageFaultTest, AFaultOnARunFailsOnlyThePinThatReadsIt)
{
    // 64 frames: runs of up to 8 pages, one read gate per run.
    PoolFixture f(Path("t.dbpages"), 64, 32);
    f.pager.ResetStats();
    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kStorageRead).every_nth = 2;
    {
        // A transient fault on a run is retried as the whole run.
        fault::ScopedFaultPlan scoped(plan);
        { PageHandle h = f.pool.Pin(1, 8); }  // gate 1
        trace::TraceCollector::Get().Clear();
        PageHandle h = f.pool.Pin(9, 8);  // gate 2 faults, gate 3 reads
        EXPECT_EQ(storage::HeaderOf(h.data())->page_id, 9u);
    }
    EXPECT_EQ(f.pager.stats().read_retries, 1u);
    EXPECT_EQ(f.pager.stats().reads, 16u);
    const std::vector<trace::SpanRecord> spans = PageReadSpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(AttrOf(spans[0], "pages"), 8.0);
    EXPECT_EQ(f.pool.Resident(), 16u);

    // A sticky fault on a run fails the run and then the requested
    // page read alone: only that pin throws, and the run leaves no
    // page of its own resident or pinned.
    plan.At(fault::FaultSite::kStorageRead).sticky = true;
    {
        fault::ScopedFaultPlan scoped(plan);
        { PageHandle h = f.pool.Pin(17, 4); }  // gate 1
        EXPECT_THROW(f.pool.Pin(21, 8), fault::FaultInjected);
        EXPECT_EQ(f.pool.Resident(), 20u);
        EXPECT_EQ(f.pool.PinnedFrames(), 0u);
        EXPECT_EQ(f.pager.stats().reads, 20u);
        // Pages read ahead before the fault still pin without a read.
        for (std::uint32_t id = 2; id <= 20; ++id) {
            PageHandle h = f.pool.Pin(id, 8);
            EXPECT_EQ(storage::HeaderOf(h.data())->page_id, id);
        }
        EXPECT_EQ(f.pager.stats().reads, 20u);
        // Every pin counted once, the failed one too: 4 before the
        // loop and 19 in it.
        EXPECT_EQ(f.pool.stats().hits + f.pool.stats().misses, 23u);
    }
    // With the disk healthy again the same run reads whole.
    PageHandle h = f.pool.Pin(21, 8);
    EXPECT_EQ(storage::HeaderOf(h.data())->page_id, 21u);
    EXPECT_EQ(f.pager.stats().reads, 28u);
    EXPECT_EQ(f.pool.Resident(), 28u);
}

TEST_F(StorageFaultTest, ScansReadAheadThroughFaults)
{
    // 64 frames read runs of 8: a transient fault on a run is retried
    // and the scan returns every row; a sticky one fails the scan, and
    // a later scan is correct.
    const Dataset data = MakeHiggs(400, 18);
    const std::string path = Path("t.dbpages");
    StorageOptions options = SmallPages();
    options.pool_pages = 64;
    { MakeHiggsTable(path, data, options); }
    auto table = PagedTable::Open(path, options);
    auto scan_all = [&table, &data] {
        FeatureStream stream = table->Scan();
        StreamChunk chunk;
        std::size_t rows = 0;
        while (stream.Next(chunk)) {
            for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
                for (std::size_t c = 0; c < data.num_features(); ++c) {
                    EXPECT_EQ(chunk.view.At(r, c),
                              data.At(chunk.row_begin + r, c));
                }
            }
            rows += chunk.view.rows();
        }
        return rows;
    };
    table->ResetStats();
    fault::FaultPlan plan;
    plan.seed = 9;
    plan.At(fault::FaultSite::kStorageRead).every_nth = 3;
    {
        fault::ScopedFaultPlan scoped(plan);
        trace::TraceCollector::Get().Clear();
        EXPECT_EQ(scan_all(), 400u);
    }
    const storage::StorageStats stats = table->Stats();
    EXPECT_GT(stats.pager.read_retries, 0u);
    EXPECT_EQ(stats.pager.reads, stats.data_pages);
    EXPECT_LE(PageReadSpans().size(), stats.data_pages / 4);

    // On a fresh pool, the fourth run's read sticks.
    table.reset();
    table = PagedTable::Open(path, options);
    plan.At(fault::FaultSite::kStorageRead).every_nth = 4;
    plan.At(fault::FaultSite::kStorageRead).sticky = true;
    {
        fault::ScopedFaultPlan scoped(plan);
        EXPECT_THROW(scan_all(), fault::FaultInjected);
    }
    EXPECT_EQ(scan_all(), 400u);
}

TEST_F(StorageFaultTest, StickyFaultPropagatesAndPoolRecovers)
{
    const Dataset data = MakeHiggs(40, 16);
    const std::string path = Path("t.dbpages");
    { MakeHiggsTable(path, data, SmallPages()); }
    auto table = PagedTable::Open(path, SmallPages());

    {
        fault::FaultPlan plan;
        plan.seed = 8;
        plan.At(fault::FaultSite::kStorageRead).probability = 1.0;
        plan.At(fault::FaultSite::kStorageRead).sticky = true;
        fault::ScopedFaultPlan scoped(plan);
        EXPECT_THROW(table->Feature(0, 0), fault::FaultInjected);
    }
    // The failed fill was rolled back: with the disk healthy again the
    // same read succeeds and returns correct data.
    EXPECT_EQ(table->Feature(0, 0), data.At(0, 0));
    EXPECT_EQ(table->Feature(39, 27), data.At(39, 27));
}

// ------------------------------------------------------------ chaos --

TEST_F(StorageChaosTest, ConcurrentScansUnderPoolPressureStayCorrect)
{
    const Dataset data = MakeHiggs(240, 17);
    StorageOptions options = SmallPages();
    // One frame per concurrent stream (plus headroom), but still far
    // fewer frames than the ~60 data pages so eviction churn is real.
    // The pool throws CapacityError when every frame is pinned, so the
    // pool must be sized for peak simultaneous pins, not total data.
    constexpr int kThreads = 8;
    options.pool_pages = 2 * kThreads;
    auto table = MakeHiggsTable(Path("t.dbpages"), data, options);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round) {
                FeatureStream stream = table->Scan();
                StreamChunk chunk;
                while (stream.Next(chunk)) {
                    for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
                        const std::size_t global = chunk.row_begin + r;
                        const std::size_t col =
                            static_cast<std::size_t>(t) % 28;
                        if (chunk.view.At(r, col) !=
                            data.At(global, col)) {
                            mismatches.fetch_add(1);
                        }
                    }
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(table->Stats().pool.HitRatio(), table->Stats().pool.HitRatio());
    EXPECT_GT(table->Stats().pool.evictions, 0u);
}

// ------------------------------------------------------ dbms wiring --

TEST_F(PagedDbmsTest, PagedScoringIsBitIdenticalToInMemory)
{
    const Dataset data = MakeHiggs(400, 70);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 8;
    config.seed = 70;
    const RandomForest forest = TrainForest(data, config);

    Database db;
    db.StoreDataset("mem", data);
    db.StoreModel("model_rf", TreeEnsemble::FromForest(forest));
    StorageOptions options;
    options.page_size = 512;
    options.pool_pages = 4;  // ~25 data pages: table is 6x the pool
    Table& paged =
        db.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);
    ASSERT_TRUE(paged.paged());
    ASSERT_GT(paged.store()->NumDataPages(), 4u * 4u);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    const auto mem =
        pipeline.RunScoringQuery("model_rf", "mem",
                                 BackendKind::kCpuSklearn);
    const auto out =
        pipeline.RunScoringQuery("model_rf", "paged",
                                 BackendKind::kCpuSklearn);
    ASSERT_EQ(out.predictions.size(), mem.predictions.size());
    EXPECT_EQ(0, std::memcmp(out.predictions.data(),
                             mem.predictions.data(),
                             mem.predictions.size() * sizeof(float)));
    EXPECT_EQ(out.predictions, forest.PredictBatch(data));
    // The paged run exercised the pool (it cannot hold the table).
    EXPECT_GT(paged.store()->Stats().pool.evictions, 0u);
    // Stage accounting mirrors the in-memory path's shape.
    EXPECT_GT(out.stages.python_invocation.seconds(), 0.0);
    EXPECT_GT(out.stages.data_transfer.seconds(), 0.0);
    EXPECT_GT(out.stages.scoring.Total().seconds(), 0.0);
}

TEST_F(PagedDbmsTest, MaxRowsAndAttachWork)
{
    const Dataset data = MakeHiggs(100, 71);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 6;
    config.seed = 71;
    const RandomForest forest = TrainForest(data, config);

    const std::string path = Path("t.dbpages");
    {
        Database db;
        db.StoreDatasetPaged("paged", data, path, StorageOptions{});
    }
    Database db;
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    Table& table = db.AttachPagedTable("paged", path, StorageOptions{});
    EXPECT_EQ(table.NumRows(), 100u);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    const auto out = pipeline.RunScoringQuery(
        "m", "paged", BackendKind::kCpuSklearn, 30);
    ASSERT_EQ(out.predictions.size(), 30u);
    const std::vector<float> reference = forest.PredictBatch(data);
    for (std::size_t i = 0; i < 30; ++i) {
        ASSERT_EQ(out.predictions[i], reference[i]);
    }
}

TEST_F(PagedDbmsTest, BulkLoadCsvPagedParsesAndScores)
{
    const std::string csv_path = Path("data.csv");
    {
        std::ofstream csv(csv_path);
        csv << "f0,f1,label\n";
        for (int r = 0; r < 50; ++r) {
            csv << r * 1.5 << "," << r * -0.5 << "," << (r % 2) << "\n";
        }
    }
    Database db;
    Table& table =
        db.BulkLoadCsvPaged("t", csv_path, Path("t.dbpages"),
                            StorageOptions{});
    ASSERT_TRUE(table.paged());
    EXPECT_EQ(table.NumRows(), 50u);
    EXPECT_EQ(table.store()->num_feature_cols(), 2u);
    EXPECT_EQ(table.store()->Feature(10, 0), 15.0f);
    EXPECT_EQ(table.store()->Label(11), 1.0f);

    // Malformed rows carry their record number.
    const std::string bad_path = Path("bad.csv");
    {
        std::ofstream csv(bad_path);
        csv << "f0,label\n1.0,0\nnot_a_number,1\n";
    }
    EXPECT_THROW(db.BulkLoadCsvPaged("bad", bad_path, Path("bad.dbpages"),
                                     StorageOptions{}),
                 ParseError);
}

TEST_F(PagedDbmsTest, BulkLoadCsvPagedTrimsCellsAsTheDatasetLoaderDoes)
{
    const std::string text = "a,label\n 1.5 ,1\n";
    const std::string csv_path = Path("trim.csv");
    {
        std::ofstream csv(csv_path);
        csv << text;
    }
    Database db;
    Table& table = db.BulkLoadCsvPaged("t", csv_path, Path("t.dbpages"),
                                       StorageOptions{});
    ASSERT_EQ(table.NumRows(), 1u);
    EXPECT_EQ(table.store()->Feature(0, 0), 1.5f);
    EXPECT_EQ(table.store()->Label(0), 1.0f);
    std::istringstream in(text);
    const Dataset data = LoadCsvDataset(in, CsvLoadOptions{});
    EXPECT_EQ(data.At(0, 0), table.store()->Feature(0, 0));
    EXPECT_EQ(data.Label(0), table.store()->Label(0));

    // A cell that is no number names its file and record.
    const std::string bad_path = Path("bad.csv");
    {
        std::ofstream csv(bad_path);
        csv << "a,label\n1,0\n 1.5x ,1\n";
    }
    try {
        db.BulkLoadCsvPaged("bad", bad_path, Path("bad.dbpages"),
                            StorageOptions{});
        FAIL() << "a non-numeric cell loaded";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("bad.csv record 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(PagedDbmsTest, SpStorageStatsReportsAndResets)
{
    const Dataset data = MakeHiggs(200, 72);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 6;
    config.seed = 72;
    const RandomForest forest = TrainForest(data, config);

    Database db;
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    StorageOptions options;
    options.page_size = 512;
    options.pool_pages = 4;
    db.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);

    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline(db, profile, rt_params);
    QueryEngine engine(db, pipeline);

    engine.Execute(
        "EXEC sp_score_model @model = 'm', @data = 'paged', "
        "@backend = 'CPU_SKLearn'");
    QueryResult stats =
        engine.Execute("EXEC sp_storage_stats @table = 'paged'");
    ASSERT_EQ(stats.rows.size(), 1u);
    ASSERT_EQ(stats.columns.front(), "table");
    EXPECT_EQ(std::get<std::string>(stats.rows[0][0]), "paged");
    auto col = [&stats](const std::string& name) {
        for (std::size_t c = 0; c < stats.columns.size(); ++c) {
            if (stats.columns[c] == name) {
                return c;
            }
        }
        throw std::out_of_range(name);
    };
    EXPECT_GT(std::get<std::int64_t>(stats.rows[0][col("misses")]), 0);
    EXPECT_GT(std::get<std::int64_t>(stats.rows[0][col("evictions")]), 0);
    EXPECT_GT(std::get<std::int64_t>(stats.rows[0][col("page_reads")]), 0);

    // @reset = 1 zeroes the counters after reporting.
    engine.Execute("EXEC sp_storage_stats @table = 'paged', @reset = 1");
    QueryResult after =
        engine.Execute("EXEC sp_storage_stats @table = 'paged'");
    EXPECT_EQ(std::get<std::int64_t>(after.rows[0][col("misses")]), 0);

    // All-tables form skips in-memory tables instead of failing.
    db.StoreDataset("mem", data);
    QueryResult all = engine.Execute("EXEC sp_storage_stats");
    EXPECT_EQ(all.rows.size(), 1u);
}

TEST_F(PagedDbmsTest, PinnedChunksFlowIntoServingLayer)
{
    const Dataset data = MakeHiggs(96, 73);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 6;
    config.seed = 73;
    const RandomForest forest = TrainForest(data, config);
    const TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    const ModelStats model_stats = ComputeModelStats(forest, &data);

    Database db;
    StorageOptions options;
    options.page_size = 512;
    options.pool_pages = 4;
    Table& table =
        db.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);

    serve::ScoringService service(HardwareProfile::Paper(), {});
    service.RegisterModel("m", ensemble, model_stats);
    service.Start();

    const std::vector<float> reference = forest.PredictBatch(data);
    FeatureStream stream = table.store()->Scan();
    StreamChunk chunk;
    std::size_t checked = 0;
    while (stream.Next(chunk)) {
        serve::ScoreRequest request;
        request.model_id = "m";
        request.num_rows = chunk.view.rows();
        request.rows = chunk.view;  // pinned zero-copy page frame
        serve::ScoreReply reply = service.ScoreSync(std::move(request));
        ASSERT_EQ(reply.status, serve::RequestStatus::kCompleted);
        ASSERT_EQ(reply.predictions.size(), chunk.view.rows());
        for (std::size_t r = 0; r < reply.predictions.size(); ++r) {
            ASSERT_EQ(reply.predictions[r],
                      reference[chunk.row_begin + r]);
        }
        checked += reply.predictions.size();
    }
    service.Stop();
    EXPECT_EQ(checked, 96u);
}

}  // namespace
}  // namespace dbscore

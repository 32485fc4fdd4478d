/**
 * @file
 * Seeded mutation fuzzing of page files through recovery (ROADMAP
 * item 3's first fuzz target).
 *
 *  - A small table committed over five generations is mutated 10^4
 *    times — bit flips, byte overwrites, truncations and swapped
 *    pages — aimed at each page kind in turn (superblock, meta slots,
 *    directory, zone-map, feature, label and free-list pages). Every
 *    mutated copy is opened, and every case must end in a typed
 *    dbscore::Error, or in an open whose full scan returns one
 *    committed generation's rows bit for bit or throws DataCorruption.
 *    Anything else (a foreign exception, wrong rows, a sanitizer
 *    report) fails the test.
 *  - Hostile contents behind valid checksums: a data-directory page
 *    whose entry count overflows its payload, whose next id points at
 *    itself or at a feature page, or whose entries name a page twice or
 *    past the file, and a free list that names a live data page, must
 *    roll Open() back to the previous generation or fail typed; a meta
 *    slot whose row count wraps when rounded up to pages must fail with
 *    DataCorruption.
 *  - Every single-bit flip of one 4 KiB data page changes its
 *    checksum comparison: ComputePageChecksum catches all 32768.
 *
 * The CI ASan+UBSan job runs the whole suite, this file included.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/storage/page.h"
#include "dbscore/storage/paged_table.h"

namespace dbscore {
namespace {

using storage::PagedTable;
using storage::PageType;
using storage::StorageOptions;

constexpr std::size_t kPageSize = storage::kMinPageSize;
constexpr std::size_t kFeatures = 3;
constexpr int kCases = 10000;

/** Every value a table serves, as raw bits: features, then labels. */
using TableBits = std::vector<std::uint32_t>;

class PageFuzzTest : public ::testing::Test {
 protected:
    void SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("dbscore_fuzz_") + info->name());
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

std::uint32_t
Bits(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** A full scan: every feature through Scan(), every label by row. */
TableBits
ScanAll(const PagedTable& table)
{
    TableBits out;
    storage::FeatureStream stream = table.Scan();
    storage::StreamChunk chunk;
    while (stream.Next(chunk)) {
        for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
            for (std::size_t c = 0; c < chunk.view.cols(); ++c) {
                out.push_back(Bits(chunk.view.At(r, c)));
            }
        }
    }
    for (std::uint64_t r = 0; r < table.num_rows(); ++r) {
        out.push_back(Bits(table.Label(r)));
    }
    return out;
}

std::vector<std::uint8_t>
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
WriteFile(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    // A fresh file, not a truncated one: filesystems such as ext4 flush
    // a file rewritten in place through truncation when it is closed,
    // which would make 10^4 cases wait on the disk.
    std::filesystem::remove(path);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

void
AppendRows(PagedTable& table, std::size_t begin, std::size_t end)
{
    for (std::size_t r = begin; r < end; ++r) {
        const float features[kFeatures] = {
            static_cast<float>(r) * 0.5f, -static_cast<float>(r),
            static_cast<float>(r % 7) + 0.25f};
        table.AppendRow(features, kFeatures, static_cast<float>(r % 2));
    }
}

TEST_F(PageFuzzTest, MutatedFilesRecoverOrFailTyped)
{
    StorageOptions options;
    options.page_size = kPageSize;
    options.pool_pages = 16;

    // Four appends after the empty first commit; generations 4 and 5
    // hold the two meta slots. Each append shadow-copies committed tail
    // pages and rewrites every chain, partly into pages freed by
    // earlier commits, so the file carries free-list pages and reused
    // pages among the live ones.
    const std::string pristine_path = Path("pristine.dbpages");
    std::vector<TableBits> committed;
    {
        auto table = PagedTable::Create(pristine_path, {"a", "b", "c", "label"},
                                        kFeatures, options);
        std::size_t rows = 0;
        for (const std::size_t batch : {40, 30, 25, 20}) {
            AppendRows(*table, rows, rows + batch);
            rows += batch;
            table->Flush();
            committed.push_back(ScanAll(*table));
        }
        ASSERT_EQ(table->generation(), 5u);
    }
    const std::vector<std::uint8_t> pristine = ReadFile(pristine_path);
    ASSERT_EQ(pristine.size() % kPageSize, 0u);
    const std::size_t num_pages = pristine.size() / kPageSize;

    std::map<PageType, std::vector<std::size_t>> pages_by_kind;
    for (std::size_t p = 0; p < num_pages; ++p) {
        const auto type = static_cast<PageType>(
            storage::HeaderOf(pristine.data() + p * kPageSize)->type);
        pages_by_kind[type].push_back(p);
    }
    for (PageType kind :
         {PageType::kSuperblock, PageType::kTableMeta, PageType::kDirectory,
          PageType::kZoneMap, PageType::kFeatures, PageType::kLabels,
          PageType::kFreeList}) {
        ASSERT_TRUE(pages_by_kind.count(kind) > 0)
            << "no " << storage::PageTypeName(kind) << " page to fuzz";
    }
    std::vector<const std::vector<std::size_t>*> kinds;
    for (const auto& [kind, pages] : pages_by_kind) {
        kinds.push_back(&pages);
    }

    Rng rng(20261017);
    const std::string path = Path("case.dbpages");
    int typed_errors = 0;
    int scan_corruptions = 0;
    std::vector<int> recovered(committed.size(), 0);
    for (int c = 0; c < kCases; ++c) {
        std::vector<std::uint8_t> bytes = pristine;
        const std::vector<std::size_t>& targets =
            *kinds[static_cast<std::size_t>(c) % kinds.size()];
        const std::size_t page = targets[rng.NextBelow(targets.size())];
        const std::size_t at = page * kPageSize + rng.NextBelow(kPageSize);
        const int mutation = (c / static_cast<int>(kinds.size())) % 4;
        switch (mutation) {
        case 0:  // bit flip
            bytes[at] ^= static_cast<std::uint8_t>(1u << rng.NextBelow(8));
            break;
        case 1:  // byte overwrite with a different value
            bytes[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
            break;
        case 2:  // truncation inside the target page
            bytes.resize(at);
            break;
        default: {  // swap the target page with another page
            std::size_t other = rng.NextBelow(num_pages - 1);
            other += other >= page ? 1 : 0;
            std::swap_ranges(
                bytes.begin() + static_cast<long>(page * kPageSize),
                bytes.begin() + static_cast<long>((page + 1) * kPageSize),
                bytes.begin() + static_cast<long>(other * kPageSize));
            break;
        }
        }
        WriteFile(path, bytes);

        std::shared_ptr<PagedTable> table;
        try {
            table = PagedTable::Open(path, options);
        } catch (const Error&) {
            ++typed_errors;
            continue;
        }
        TableBits rows;
        try {
            rows = ScanAll(*table);
        } catch (const DataCorruption&) {
            ++scan_corruptions;
            continue;
        }
        bool matched = false;
        for (std::size_t g = 0; g < committed.size(); ++g) {
            if (rows == committed[g]) {
                ++recovered[g];
                matched = true;
                break;
            }
        }
        ASSERT_TRUE(matched) << "case " << c << ": mutation " << mutation
                             << " of page " << page << " at byte " << at
                             << " opened with rows of no committed "
                                "generation";
    }
    // Every ending is reachable, so each one must have been exercised.
    EXPECT_GT(typed_errors, 0);
    EXPECT_GT(scan_corruptions, 0);
    EXPECT_GT(recovered[committed.size() - 2], 0)
        << "no case rolled back a generation";
    EXPECT_GT(recovered.back(), 0) << "no case kept the newest generation";
}

/** The @p T at @p offset in the payload of page @p page of a file
 * image of @p page_size pages. */
template <typename T>
T
GetField(const std::vector<std::uint8_t>& bytes, std::size_t page_size,
         std::size_t page, std::size_t offset)
{
    T value;
    std::memcpy(&value,
                storage::PayloadOf(bytes.data() + page * page_size) + offset,
                sizeof(value));
    return value;
}

/** Sets that field and re-stamps the page's checksum, so the edit
 * reaches the code that reads the page's contents. */
template <typename T>
void
SetField(std::vector<std::uint8_t>& bytes, std::size_t page_size,
         std::size_t page, std::size_t offset, T value)
{
    std::uint8_t* data = bytes.data() + page * page_size;
    std::memcpy(storage::PayloadOf(data) + offset, &value, sizeof(value));
    storage::HeaderOf(data)->checksum =
        storage::ComputePageChecksum(data, page_size);
}

TEST_F(PageFuzzTest, HostileChainPagesRollBackOrFailTyped)
{
    // Chain pages whose checksums are valid but whose contents are not:
    // the chain reader must refuse them before it sizes anything from
    // them, and adoption must refuse entries that name a page another
    // role holds or none, so Open() rolls back to the previous
    // generation.
    constexpr std::size_t kBigPage = 4096;
    constexpr std::size_t kWide = 28;
    StorageOptions options;
    options.page_size = kBigPage;
    options.pool_pages = 16;
    std::vector<std::string> columns;
    for (std::size_t c = 0; c < kWide; ++c) {
        columns.push_back(std::string("f").append(std::to_string(c)));
    }
    columns.emplace_back("label");
    const std::string pristine_path = Path("pristine.dbpages");
    std::uint64_t previous_rows = 0;
    {
        auto table =
            PagedTable::Create(pristine_path, columns, kWide, options);
        std::vector<float> row(kWide);
        std::size_t rows = 0;
        auto append = [&](std::size_t n) {
            for (std::size_t i = 0; i < n; ++i, ++rows) {
                for (std::size_t c = 0; c < kWide; ++c) {
                    row[c] = static_cast<float>(rows % 89) -
                             static_cast<float>(c);
                }
                table->AppendRow(row.data(), kWide,
                                 static_cast<float>(rows % 2));
            }
        };
        for (const std::size_t batch : {900, 700, 500, 300}) {
            append(batch);
            table->Flush();
        }
        for (const std::size_t batch : {400, 300, 200}) {
            table.reset();
            table = PagedTable::Open(pristine_path, options);
            previous_rows = table->num_rows();
            append(batch);
            table->Flush();
            table->Recover();
        }
    }
    const std::vector<std::uint8_t> pristine = ReadFile(pristine_path);
    const std::size_t num_pages = pristine.size() / kBigPage;
    // The newest generation's meta slot (u64 generation first), the
    // heads of its data directory and free list (the u32s at payload
    // offsets 28 and 40), and the first two data pages it lists.
    const std::size_t slot =
        GetField<std::uint64_t>(pristine, kBigPage, 1, 0) >
                GetField<std::uint64_t>(pristine, kBigPage, 2, 0)
            ? 1
            : 2;
    const auto directory =
        GetField<std::uint32_t>(pristine, kBigPage, slot, 28);
    const auto free_list =
        GetField<std::uint32_t>(pristine, kBigPage, slot, 40);
    for (const std::uint32_t head : {directory, free_list}) {
        ASSERT_GT(head, 2u);
        ASSERT_LT(head, num_pages);
        ASSERT_GE(GetField<std::uint32_t>(pristine, kBigPage, head, 4), 2u);
    }
    const auto first_data =
        GetField<std::uint32_t>(pristine, kBigPage, directory, 8);
    const auto second_data =
        GetField<std::uint32_t>(pristine, kBigPage, directory, 12);
    std::uint32_t feature_page = 0;
    while (feature_page < num_pages &&
           storage::HeaderOf(pristine.data() + feature_page * kBigPage)
                   ->type != static_cast<std::uint16_t>(PageType::kFeatures)) {
        ++feature_page;
    }
    ASSERT_LT(feature_page, num_pages);

    struct Edit {
        const char* what;
        std::uint32_t page;
        std::size_t offset;  // 0: next page, 4: entry count, 8: 1st entry
        std::uint32_t value;
    };
    const auto past_the_file = static_cast<std::uint32_t>(num_pages);
    const Edit edits[] = {
        {"directory count 0xFFFFFFFF", directory, 4, 0xFFFFFFFFu},
        {"directory next = the page itself", directory, 0, directory},
        {"directory next = a feature page", directory, 0, feature_page},
        {"directory lists a data page twice", directory, 8, second_data},
        {"directory lists a page past the file", directory, 8,
         past_the_file},
        {"free list lists a live data page", free_list, 8, first_data},
    };
    const std::string path = Path("case.dbpages");
    for (const Edit& edit : edits) {
        std::vector<std::uint8_t> bytes = pristine;
        SetField(bytes, kBigPage, edit.page, edit.offset, edit.value);
        WriteFile(path, bytes);
        std::shared_ptr<PagedTable> table;
        try {
            table = PagedTable::Open(path, options);
        } catch (const Error&) {
            continue;  // a typed refusal
        } catch (const std::exception& e) {
            ADD_FAILURE() << edit.what << ": Open threw " << e.what();
            continue;
        }
        EXPECT_TRUE(table->last_recovery().rolled_back) << edit.what;
        ASSERT_EQ(table->num_rows(), previous_rows) << edit.what;
        storage::FeatureStream stream = table->Scan();
        storage::StreamChunk chunk;
        std::uint64_t rows = 0;
        while (stream.Next(chunk)) {
            rows += chunk.view.rows();
        }
        EXPECT_EQ(rows, previous_rows) << edit.what;
    }
}

TEST_F(PageFuzzTest, HostileMetaRowCountIsDataCorruption)
{
    // An empty table whose only meta slot claims 2^64 - 1 rows: rounded
    // up with wrap-around, that count needs no pages, which its empty
    // chains match, and every row read would index past them.
    const std::string path = Path("t.dbpages");
    StorageOptions options;
    options.page_size = kPageSize;
    PagedTable::Create(path, {"a", "b", "c", "label"}, kFeatures, options);
    std::vector<std::uint8_t> bytes = ReadFile(path);
    // Generation 1 lives in slot 2; its row count follows the u64
    // generation.
    SetField(bytes, kPageSize, 2, 8, ~std::uint64_t{0});
    WriteFile(path, bytes);
    EXPECT_THROW(PagedTable::Open(path, options), DataCorruption);
}

TEST_F(PageFuzzTest, ChecksumCatchesEverySingleBitFlip)
{
    constexpr std::size_t kSize = 4096;
    std::vector<std::uint8_t> page(kSize);
    storage::InitPage(page.data(), kSize, 7, PageType::kFeatures);
    Rng rng(7);
    const std::size_t payload = storage::PagePayloadBytes(kSize);
    for (std::size_t i = 0; i < payload; ++i) {
        storage::PayloadOf(page.data())[i] =
            static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    storage::HeaderOf(page.data())->payload_bytes =
        static_cast<std::uint32_t>(payload);
    storage::HeaderOf(page.data())->checksum =
        storage::ComputePageChecksum(page.data(), kSize);

    int caught = 0;
    for (std::size_t bit = 0; bit < kSize * 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        page[bit / 8] ^= mask;
        if (storage::ComputePageChecksum(page.data(), kSize) !=
            storage::HeaderOf(page.data())->checksum) {
            ++caught;
        }
        page[bit / 8] ^= mask;
    }
    EXPECT_EQ(caught, static_cast<int>(kSize * 8));
}

}  // namespace
}  // namespace dbscore

/**
 * @file
 * Tests for the paged SCORE scan (DESIGN.md §14): survivors of several
 * pages copied into one morsel, morsels scored on the shared pool while
 * the statement walks on and sunk in scan order, and TOP n ... ORDER BY
 * kept in a bounded heap.
 *
 *  - paged and in-memory tables return identical results and identical
 *    early-exit counters for COUNT, AVG, MIN, MAX, TOP with and without
 *    ORDER BY, plain filters with SCORE, label predicates and a
 *    non-prefix SCORE (the gather path), under pools of 4, 16 and 256
 *    frames over a table spanning several 1024-row morsels, and on
 *    1001-byte pages (rows at addresses that are no multiple of the
 *    page size);
 *  - the bounded TOP-N equals a full stable sort truncated, with many
 *    tied keys, ascending and descending, by SCORE and by a column,
 *    including TOP 0 and a TOP larger than the survivors;
 *  - TOP n without ORDER BY pins no page past the one holding its
 *    n-th row;
 *  - statements without SCORE run the same scan: on a table clustered
 *    on the filtered column they prune pages through the zone map and
 *    pin each scanned page once, and one that reads no feature column
 *    scans no feature page;
 *  - twelve threads scoring concurrently on one 16-frame pool (a
 *    statement holds one data pin at a time) agree with a serial run,
 *    and so do twice the shared pool's size of statements run on the
 *    pool's own threads;
 *  - a corrupt data page met with morsels in flight fails the statement
 *    with DataCorruption;
 *  - on pages of thousands of rows a morsel closes one row short of
 *    kParallelRowCutoff, so no kernel call on it goes parallel;
 *  - kernel spans of morsels scored on pool threads parent to the span
 *    current on the statement thread, on both backings;
 *  - an in-memory TOP n without ORDER BY scores one 1024-row morsel,
 *    not the whole table;
 *  - labels are read a page at a time, so a statement pins each label
 *    page it touches once per reader (its filter, its sink);
 *  - TOP n ... ORDER BY SCORE under the rising heap threshold equals
 *    the naive plan on both backings: TOP 1 to past the table's size,
 *    ASC and DESC, with plain and SCORE predicates, at tie-group
 *    boundaries (where the strict cut drops tied rows before full
 *    scoring), with a NaN leaf, and on pool threads; its early-exit
 *    counters repeat exactly, and kernels that cannot exit before their
 *    last tree keep full scoring.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/physical.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/dbms/sql.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/storage/page.h"
#include "dbscore/trace/trace.h"

namespace dbscore {
namespace {

class PagedScanTest : public ::testing::Test {
 protected:
    void SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("dbscore_scan_") + info->name());
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

    /**
     * Runs @p sql through a fresh planner (plans are not shared); the
     * plan's early-exit counters of this one run go to @p stats.
     */
    QueryResult Run(const std::string& sql, ThresholdStats* stats = nullptr)
    {
        plan::Planner planner(db_);
        const auto plan =
            planner.Plan(std::get<SelectStatement>(ParseSql(sql)), sql);
        QueryResult result = plan->Execute(db_);
        if (stats != nullptr) {
            *stats = plan->threshold_stats();
        }
        return result;
    }

    std::filesystem::path dir_;
    Database db_;
};

void
ExpectSameResult(const QueryResult& want, const QueryResult& got,
                 const std::string& what)
{
    ASSERT_EQ(got.columns, want.columns) << what;
    ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
    for (std::size_t r = 0; r < want.rows.size(); ++r) {
        ASSERT_EQ(got.rows[r], want.rows[r]) << what << " row " << r;
    }
}

void
ExpectSameStats(const ThresholdStats& want, const ThresholdStats& got,
                const std::string& what)
{
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.rows_decided_early, want.rows_decided_early) << what;
    EXPECT_EQ(got.tree_traversals, want.tree_traversals) << what;
    EXPECT_EQ(got.tree_traversals_full, want.tree_traversals_full) << what;
}

/** Regression forest over @p cols of @p data, target kin_0 + kin_3. */
RandomForest
TrainRegression(const Dataset& data, const std::vector<std::size_t>& cols,
                std::uint64_t seed, std::size_t trees = 8)
{
    Dataset train("reg", Task::kRegression, cols.size(), 0);
    std::vector<float> row(cols.size());
    for (std::size_t r = 0; r < 600; ++r) {
        for (std::size_t j = 0; j < cols.size(); ++j) {
            row[j] = data.At(r, cols[j]);
        }
        train.AddRow(row, data.At(r, 0) + data.At(r, 3));
    }
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = 6;
    config.seed = seed;
    return TrainForest(train, config);
}

TEST_F(PagedScanTest, PagedMatchesInMemoryAcrossPoolSizes)
{
    // 4000 rows of 28 features: 112 pages of 36 rows (500 of 8 rows on
    // 1001-byte pages), several 1024-row morsels.
    const Dataset data = MakeHiggs(4000, 91);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 91;
    db_.StoreModel("m", TreeEnsemble::FromForest(TrainForest(data, config)));
    std::vector<std::size_t> all(data.num_features());
    for (std::size_t c = 0; c < all.size(); ++c) {
        all[c] = c;
    }
    db_.StoreModel("r", TreeEnsemble::FromForest(TrainRegression(data, all, 92)));
    // 32 trees: enough 8-tree checkpoints for rows to exit early.
    db_.StoreModel("e",
                   TreeEnsemble::FromForest(TrainRegression(data, all, 94, 32)));
    db_.StoreModel("p",
                   TreeEnsemble::FromForest(TrainRegression(data, {2, 0}, 93)));
    db_.StoreDataset("mem", data);
    // {page bytes, pool frames}.
    const std::vector<std::pair<std::size_t, std::size_t>> layouts = {
        {4096, 4}, {4096, 16}, {4096, 256}, {1001, 16}};
    std::vector<std::string> paged;
    for (const auto& [page_size, pool] : layouts) {
        storage::StorageOptions options;
        options.page_size = page_size;
        options.pool_pages = pool;
        paged.push_back("paged" + std::to_string(page_size) + "_" +
                        std::to_string(pool));
        db_.StoreDatasetPaged(paged.back(), data,
                              Path(paged.back() + ".dbpages"), options);
    }
    const std::vector<std::string> statements = {
        "SELECT COUNT(*) FROM $ WHERE kin_0 > 0.3 AND SCORE(m) > 0.5",
        "SELECT COUNT(*) FROM $ WHERE kin_0 > 0.2 AND SCORE(e) > 0.5",
        "SELECT COUNT(*), AVG(SCORE(r)), MIN(SCORE(r)), MAX(SCORE(r)), "
        "MIN(kin_1), MAX(kin_2) FROM $ WHERE kin_0 > -0.5",
        "SELECT AVG(kin_4), MAX(SCORE(m)) FROM $ WHERE SCORE(r) > 0.2",
        "SELECT TOP 50 kin_0, SCORE(r) FROM $ WHERE kin_1 < 1 "
        "ORDER BY SCORE(r) DESC",
        "SELECT TOP 50 kin_0, SCORE(r) FROM $ WHERE kin_1 < 1",
        "SELECT TOP 1500 kin_5, SCORE(m) FROM $ WHERE SCORE(r) <= 0.4",
        "SELECT kin_0, SCORE(m) FROM $ WHERE kin_2 > 0.1",
        "SELECT SCORE(p, kin_2, kin_0), kin_7 FROM $ WHERE kin_3 < 0.5 "
        "ORDER BY kin_7",
        "SELECT COUNT(*) FROM $ WHERE label > 0.5 AND SCORE(m) > 0.5",
        "SELECT * FROM $ WHERE SCORE(p, kin_2, kin_0) > 0.7",
    };
    bool early_exit = false;
    for (const std::string& pattern : statements) {
        auto on = [&pattern](const std::string& table) {
            std::string sql = pattern;
            sql.replace(sql.find('$'), 1, table);
            return sql;
        };
        // TOP without ORDER BY stops each scan after the morsel with
        // its n-th row, and morsels close at different rows on the two
        // backings: only statements that read the whole scan count the
        // same work.
        const bool whole_scan = pattern.find("TOP") == std::string::npos ||
                                pattern.find("ORDER BY") != std::string::npos;
        ThresholdStats want_stats;
        const QueryResult want = Run(on("mem"), &want_stats);
        ASSERT_FALSE(want.rows.empty()) << pattern;
        early_exit = early_exit || want_stats.rows_decided_early > 0;
        for (const std::string& table : paged) {
            const std::string sql = on(table);
            ThresholdStats stats;
            ExpectSameResult(want, Run(sql, &stats), sql);
            if (whole_scan) {
                ExpectSameStats(want_stats, stats, sql);
            }
        }
    }
    EXPECT_TRUE(early_exit);
    // A literal no number compares with keeps its typed error.
    for (const std::string& table : {std::string("mem"), paged.front()}) {
        EXPECT_THROW(Run("SELECT COUNT(*) FROM " + table +
                         " WHERE kin_0 > 'x' AND SCORE(m) > 0.5"),
                     InvalidArgument)
            << table;
    }
}

TEST_F(PagedScanTest, PlainStatementsPruneAndPinEachPageOnce)
{
    // HIGGS clustered on kin_0, so a range on kin_0 prunes pages.
    const Dataset higgs = MakeHiggs(4000, 97);
    std::vector<std::size_t> order(higgs.num_rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&higgs](std::size_t a, std::size_t b) {
                         return higgs.At(a, 0) < higgs.At(b, 0);
                     });
    Dataset data("clustered", higgs.task(), higgs.num_features(),
                 higgs.num_classes());
    data.feature_names() = higgs.feature_names();
    std::vector<float> row(higgs.num_features());
    for (const std::size_t r : order) {
        for (std::size_t f = 0; f < row.size(); ++f) {
            row[f] = higgs.At(r, f);
        }
        data.AddRow(row, higgs.Label(r));
    }
    db_.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.pool_pages = 16;
    storage::PagedTable& store =
        *db_.StoreDatasetPaged("paged", data, Path("t.dbpages"), options)
             .store();
    // No statement reads the label (label pages pin per row), and none
    // is TOP without ORDER BY (which stops before its last page).
    for (const char* pattern :
         {"SELECT COUNT(*) FROM $ WHERE kin_0 > 1.5",
          "SELECT COUNT(*), AVG(kin_3), MIN(kin_1), MAX(derived_2) FROM $ "
          "WHERE kin_0 > 1.2 AND kin_5 < 0.5",
          "SELECT TOP 20 kin_0, kin_7 FROM $ WHERE kin_0 < -1.5 "
          "ORDER BY kin_7 DESC"}) {
        auto on = [pattern](const std::string& table) {
            std::string sql = pattern;
            sql.replace(sql.find('$'), 1, table);
            return sql;
        };
        const QueryResult want = Run(on("mem"));
        store.ResetStats();
        const QueryResult got = Run(on("paged"));
        const storage::StorageStats stats = store.Stats();
        ExpectSameResult(want, got, on("paged"));
        EXPECT_GT(stats.pages_pruned, 0u) << pattern;
        EXPECT_EQ(stats.pool.hits + stats.pool.misses, stats.pages_scanned)
            << pattern;
    }
    // A statement that reads no feature column scans no feature page:
    // COUNT(*) alone pins nothing, a label filter only label pages.
    store.ResetStats();
    const QueryResult all = Run("SELECT COUNT(*) FROM paged");
    EXPECT_EQ(std::get<std::int64_t>(all.rows[0][0]), 4000);
    EXPECT_EQ(store.Stats().pool.hits + store.Stats().pool.misses, 0u);
    const QueryResult want = Run("SELECT COUNT(*) FROM mem WHERE label = 1");
    store.ResetStats();
    ExpectSameResult(want, Run("SELECT COUNT(*) FROM paged WHERE label = 1"),
                     "label filter");
    EXPECT_EQ(store.Stats().pages_scanned, 0u);
}

/** @p rows HIGGS rows sorted by kin_0, so a range on kin_0 prunes
 * pages; the first row's kin_0 is -inf and the last row's +inf. */
Dataset
ClusteredOnKin0(std::size_t rows, std::uint64_t seed)
{
    const Dataset higgs = MakeHiggs(rows, seed);
    std::vector<std::size_t> order(higgs.num_rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&higgs](std::size_t a, std::size_t b) {
                         return higgs.At(a, 0) < higgs.At(b, 0);
                     });
    Dataset data("clustered", higgs.task(), higgs.num_features(),
                 higgs.num_classes());
    data.feature_names() = higgs.feature_names();
    std::vector<float> row(higgs.num_features());
    for (const std::size_t r : order) {
        for (std::size_t f = 0; f < row.size(); ++f) {
            row[f] = higgs.At(r, f);
        }
        if (r == order.front() || r == order.back()) {
            row[0] = (r == order.front() ? -1.0F : 1.0F) *
                     std::numeric_limits<float>::infinity();
        }
        data.AddRow(row, higgs.Label(r));
    }
    return data;
}

TEST_F(PagedScanTest, ZoneRangeIntersectsEveryConjunctOnItsColumn)
{
    const Dataset data = ClusteredOnKin0(4000, 99);
    db_.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.pool_pages = 16;
    storage::PagedTable& store =
        *db_.StoreDatasetPaged("paged", data, Path("t.dbpages"), options)
             .store();
    const std::size_t pages = store.NumDataPages();
    // The 70th and 80th percentile of kin_0, and a later conjunct on
    // another column, which leaves the range alone.
    const double low = data.At(2800, 0);
    const double high = data.At(3200, 0);
    auto pages_meeting = [&store, pages](double min, double max) {
        std::size_t n = 0;
        for (std::size_t p = 0; p < pages; ++p) {
            const storage::ZoneRange zone = store.ZoneMap(p)[0];
            n += zone.max >= static_cast<float>(min) &&
                 zone.min <= static_cast<float>(max);
        }
        return n;
    };
    const std::string range = StrFormat(
        "kin_0 > %.9g AND kin_3 < 0.5 AND kin_0 < %.9g", low, high);
    const std::string contradiction =
        StrFormat("kin_0 >= %.9g AND kin_0 <= %.9g", high, low);
    // Each scans fewer pages than its first conjunct alone meets.
    ASSERT_LT(pages_meeting(low, high), pages_meeting(low, 1e30));
    ASSERT_GT(pages_meeting(high, 1e30), 0U);
    // Literals past float range round to ±inf: the range must still
    // meet the page holding the infinite cell, and only that page.
    ASSERT_EQ(pages_meeting(1e39, 1e39), 1U);
    ASSERT_EQ(pages_meeting(-1e39, -1e39), 1U);
    // {WHERE, pages to scan}.
    for (const auto& [where, want_pages] :
         {std::pair{range, pages_meeting(low, high)},
          std::pair{contradiction, std::size_t{0}},
          std::pair{std::string("kin_0 >= 1e39"), std::size_t{1}},
          std::pair{std::string("kin_0 > 1e39 AND kin_0 < 1e40"),
                    std::size_t{1}},
          std::pair{std::string("kin_0 <= -1e39"), std::size_t{1}}}) {
        for (const std::string select :
             {"SELECT COUNT(*) FROM $ WHERE ",
              "SELECT kin_0, kin_3 FROM $ WHERE "}) {
            auto on = [&](const std::string& table) {
                std::string sql = select + where;
                sql.replace(sql.find('$'), 1, table);
                return sql;
            };
            const QueryResult want = Run(on("mem"));
            plan::Planner naive(db_, {/*optimize=*/false});
            ExpectSameResult(want, naive.PlanQuery(on("paged"))->Execute(db_),
                             on("paged") + " (naive)");
            store.ResetStats();
            ExpectSameResult(want, Run(on("paged")), on("paged"));
            EXPECT_EQ(store.Stats().pages_scanned, want_pages) << where;
            EXPECT_EQ(store.Stats().pages_pruned, pages - want_pages) << where;
        }
    }
}

/** A 4-feature table with heavy ties: f0 = r % 5, f1 = r (row id). */
Dataset
TiedData(std::size_t rows)
{
    Dataset data("tied", Task::kClassification, 4, 2);
    data.feature_names() = {"f0", "f1", "f2", "f3"};
    Rng rng(95);
    for (std::size_t r = 0; r < rows; ++r) {
        const float f2 = static_cast<float>(rng.NextDouble());
        const float f3 = static_cast<float>(rng.NextDouble());
        data.AddRow({static_cast<float>(r % 5), static_cast<float>(r), f2, f3},
                    f2 + f3 > 1.0f ? 1.0f : 0.0f);
    }
    return data;
}

void
StoreTied(Database& db, const Dataset& data, const std::string& paged_path,
          std::size_t pool_pages, std::size_t page_size = 512)
{
    ForestTrainerConfig config;
    config.num_trees = 6;
    config.max_depth = 5;
    config.seed = 96;
    db.StoreModel("c", TreeEnsemble::FromForest(TrainForest(data, config)));
    db.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.page_size = page_size;  // 512 bytes: 30 rows of 4 features
    options.pool_pages = pool_pages;
    db.StoreDatasetPaged("paged", data, paged_path, options);
}

TEST_F(PagedScanTest, BoundedTopNEqualsStableSort)
{
    const Dataset data = TiedData(3000);
    StoreTied(db_, data, Path("t.dbpages"), 64);
    for (const char* table : {"mem", "paged"}) {
        // Scan order, then the test's own stable sort: the reference.
        const QueryResult scan = Run(
            std::string("SELECT f1, f0, SCORE(c) FROM ") + table +
            " WHERE f2 > 0.2");
        ASSERT_GT(scan.rows.size(), 1500u);
        for (const auto& [order, key, desc] :
             {std::tuple{"SCORE(c)", 2, false}, {"SCORE(c) DESC", 2, true},
              {"f0", 1, false}, {"f0 DESC", 1, true}}) {
            std::vector<std::vector<Value>> sorted = scan.rows;
            const auto k = static_cast<std::size_t>(key);
            std::stable_sort(sorted.begin(), sorted.end(),
                             [k, desc = desc](const auto& a, const auto& b) {
                                 const int cmp = CompareValues(a[k], b[k]);
                                 return desc ? cmp > 0 : cmp < 0;
                             });
            for (const std::size_t n :
                 {std::size_t{0}, std::size_t{1}, std::size_t{7},
                  std::size_t{400}, scan.rows.size() + 10}) {
                const std::string sql =
                    "SELECT TOP " + std::to_string(n) +
                    " f1, f0, SCORE(c) FROM " + table +
                    " WHERE f2 > 0.2 ORDER BY " + order;
                const QueryResult got = Run(sql);
                ASSERT_EQ(got.rows.size(), std::min(n, sorted.size())) << sql;
                for (std::size_t i = 0; i < got.rows.size(); ++i) {
                    ASSERT_EQ(got.rows[i], sorted[i]) << sql << " row " << i;
                }
            }
        }
    }
}

TEST_F(PagedScanTest, TopWithoutOrderByPinsNoPagePastItsLastRow)
{
    const Dataset data = TiedData(3000);
    StoreTied(db_, data, Path("t.dbpages"), 256);
    storage::PagedTable& store = *db_.GetTable("paged").store();
    const std::size_t rows_per_page = store.rows_per_page();
    // No zone map can prune f0 >= 2 (every page holds f0 = 0..4), so
    // the scan visits pages in order: a scan that stops on the page of
    // its n-th row pins exactly that page's index + 1 pages.
    for (const std::size_t n : {1, 5, 40, 200, 900}) {
        const std::string tail = " f1, SCORE(c) FROM $ WHERE f0 >= 2 AND "
                                 "SCORE(c) > 0.5";
        std::string sql = "SELECT TOP " + std::to_string(n) + tail;
        sql.replace(sql.find('$'), 1, "paged");
        store.ResetStats();
        const QueryResult got = Run(sql);
        const storage::StorageStats stats = store.Stats();
        ASSERT_EQ(got.rows.size(), n) << sql;
        const auto last_row =
            static_cast<std::size_t>(std::get<double>(got.rows.back()[0]));
        EXPECT_LE(stats.pool.hits + stats.pool.misses,
                  last_row / rows_per_page + 1)
            << sql;
        std::string mem_sql = "SELECT TOP " + std::to_string(n) + tail;
        mem_sql.replace(mem_sql.find('$'), 1, "mem");
        ExpectSameResult(Run(mem_sql), got, sql);
    }
}

TEST_F(PagedScanTest, ConcurrentStatementsShareASmallPool)
{
    // 16 frames: a statement pins one data page at a time, so twelve
    // concurrent statements that read no label fit with room to evict.
    const Dataset data = TiedData(6000);  // 200 pages
    StoreTied(db_, data, Path("t.dbpages"), 16);
    const std::vector<std::string> statements = {
        "SELECT COUNT(*), AVG(SCORE(c)) FROM paged WHERE f2 > 0.3",
        "SELECT TOP 25 f1, SCORE(c) FROM paged WHERE f3 < 0.6 "
        "ORDER BY SCORE(c) DESC",
        "SELECT TOP 300 f1 FROM paged WHERE SCORE(c) > 0.5",
        "SELECT MIN(f2), MAX(f3) FROM paged WHERE SCORE(c) < 0.5",
    };
    plan::Planner planner(db_);
    std::vector<std::shared_ptr<const plan::PhysicalPlan>> plans;
    std::vector<QueryResult> serial;
    for (const std::string& sql : statements) {
        plans.push_back(
            planner.Plan(std::get<SelectStatement>(ParseSql(sql)), sql));
        serial.push_back(plans.back()->Execute(db_));
    }
    constexpr int kThreads = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 4; ++round) {
                const std::size_t s =
                    static_cast<std::size_t>(t + round) % plans.size();
                try {
                    const QueryResult got = plans[s]->Execute(db_);
                    if (got.rows != serial[s].rows) {
                        failures.fetch_add(1);
                    }
                } catch (const Error&) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(db_.GetTable("paged").store()->Stats().pool.evictions, 0u);
}

TEST_F(PagedScanTest, StatementsOnPoolThreadsMatchSerialRuns)
{
    // Statements running on the shared pool's own threads offer their
    // morsels to that same pool. A statement scores any morsel no
    // worker has started, so it never waits on one queued behind the
    // other statements, and twice the pool's size of them all finish.
    ThreadPool& pool = ThreadPool::Shared();
    const Dataset data = TiedData(20000);  // 667 pages, ~14 morsels
    StoreTied(db_, data, Path("t.dbpages"), 16 + 2 * pool.size());
    const std::vector<std::string> statements = {
        "SELECT COUNT(*), AVG(SCORE(c)) FROM paged WHERE f2 > 0.3",
        "SELECT TOP 25 f1, SCORE(c) FROM paged WHERE f3 < 0.6 "
        "ORDER BY SCORE(c) DESC",
        "SELECT TOP 300 f1 FROM paged WHERE SCORE(c) > 0.5",
        "SELECT MIN(f2), MAX(f3) FROM paged WHERE SCORE(c) < 0.5",
    };
    plan::Planner planner(db_);
    std::vector<std::shared_ptr<const plan::PhysicalPlan>> plans;
    std::vector<QueryResult> serial;
    for (const std::string& sql : statements) {
        plans.push_back(
            planner.Plan(std::get<SelectStatement>(ParseSql(sql)), sql));
        serial.push_back(plans.back()->Execute(db_));
    }
    const std::size_t n = 2 * pool.size();
    std::vector<QueryResult> got(n);
    pool.ParallelFor(n, [&](std::size_t i) {
        got[i] = plans[i % plans.size()]->Execute(db_);
    });
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = i % plans.size();
        ExpectSameResult(serial[s], got[i], statements[s]);
    }
}

TEST_F(PagedScanTest, CorruptPageWithMorselsInFlightIsDataCorruption)
{
    // A page 3/4 of the way through the scan fails its checksum after
    // about ten morsels have gone to the pool. The statement still
    // fails with the typed error, and it waits for its running morsels
    // before it unwinds (the sanitizer jobs check that no task outlives
    // the stack it reads).
    const Dataset data = TiedData(20000);
    const std::string path = Path("t.dbpages");
    StoreTied(db_, data, path, 16);
    db_.DropTable("paged");
    constexpr std::size_t kPageSize = 512;
    std::vector<std::uint32_t> feature_pages;
    {
        std::ifstream file(path, std::ios::binary);
        std::vector<std::uint8_t> page(kPageSize);
        for (std::uint32_t id = 0;
             file.read(reinterpret_cast<char*>(page.data()), kPageSize);
             ++id) {
            if (storage::HeaderOf(page.data())->type ==
                static_cast<std::uint16_t>(storage::PageType::kFeatures)) {
                feature_pages.push_back(id);
            }
        }
    }
    ASSERT_GT(feature_pages.size(), 600u);
    {
        const std::streamoff off =
            static_cast<std::streamoff>(
                feature_pages[feature_pages.size() * 3 / 4]) *
                kPageSize +
            static_cast<std::streamoff>(storage::kPageHeaderSize) + 4;
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekg(off);
        const int byte = file.get();
        file.seekp(off);
        file.put(static_cast<char>(byte ^ 0xFF));
    }
    storage::StorageOptions options;
    options.page_size = kPageSize;
    options.pool_pages = 16;
    db_.AttachPagedTable("paged", path, options);
    for (const char* sql :
         {"SELECT COUNT(*), AVG(SCORE(c)) FROM paged WHERE f2 > 0.3",
          "SELECT TOP 25 f1, SCORE(c) FROM paged WHERE f3 < 0.6 "
          "ORDER BY SCORE(c) DESC",
          "SELECT f1, SCORE(c) FROM paged WHERE SCORE(c) > 0.5"}) {
        EXPECT_THROW(Run(sql), DataCorruption) << sql;
    }
    // A TOP without ORDER BY that stops before the page never reads it.
    const QueryResult top =
        Run("SELECT TOP 40 f1, SCORE(c) FROM paged WHERE f2 > 0.3");
    ExpectSameResult(Run("SELECT TOP 40 f1, SCORE(c) FROM mem WHERE f2 > 0.3"),
                     top, "TOP 40 before the corrupt page");
}

/** Ids of the feature pages of the page file at @p path, in file
 * order. */
std::vector<std::uint32_t>
FeaturePageIds(const std::string& path, std::size_t page_size)
{
    std::vector<std::uint32_t> ids;
    std::ifstream file(path, std::ios::binary);
    std::vector<std::uint8_t> page(page_size);
    for (std::uint32_t id = 0;
         file.read(reinterpret_cast<char*>(page.data()),
                   static_cast<std::streamsize>(page_size));
         ++id) {
        if (storage::HeaderOf(page.data())->type ==
            static_cast<std::uint16_t>(storage::PageType::kFeatures)) {
            ids.push_back(id);
        }
    }
    return ids;
}

TEST_F(PagedScanTest, ReadAheadPastATopsLastPageNeverFailsIt)
{
    // 4 KiB pages of 36 rows with a label page after about every 28
    // data pages; 256 frames make runs of up to 32 pages.
    constexpr std::size_t kPageSize = 4096;
    const Dataset data = MakeHiggs(8000, 100);
    db_.StoreDataset("mem", data);
    const std::string path = Path("t.dbpages");
    storage::StorageOptions options;
    options.page_size = kPageSize;
    options.pool_pages = 256;
    const std::size_t rows_per_page =
        db_.StoreDatasetPaged("paged", data, path, options)
            .store()
            ->rows_per_page();
    db_.DropTable("paged");
    // The first data page p whose next three data pages follow it in
    // the file, inside one run from the first page of its stretch of
    // consecutive data pages: the read of that first page reads p + 3.
    const std::vector<std::uint32_t> ids = FeaturePageIds(path, kPageSize);
    std::size_t p = 1;
    std::size_t stretch = 1;
    for (; p + 3 < ids.size(); ++p) {
        if (ids[p - 1] + 1 != ids[p]) {
            stretch = p;
        }
        if (ids[p + 3] == ids[p] + 3 &&
            p + 3 - stretch < storage::kMaxReadRun) {
            break;
        }
    }
    ASSERT_LT(p + 3, ids.size());
    {
        const auto off =
            static_cast<std::streamoff>(ids[p + 3] * kPageSize +
                                        storage::kPageHeaderSize + 8);
        std::fstream file(path,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekg(off);
        const int byte = file.get();
        file.seekp(off);
        file.put(static_cast<char>(byte ^ 0xFF));
    }
    storage::PagedTable& store =
        *db_.AttachPagedTable("paged", path, options).store();
    // The TOP's n-th row is the first row of page p: the statement
    // pins pages 0 to p, and the read ahead that met page p + 3 fails
    // none of those pins.
    const std::string top =
        "SELECT TOP " + std::to_string(p * rows_per_page + 1) +
        " kin_0, kin_5 FROM ";
    store.ResetStats();
    ExpectSameResult(Run(top + "mem"), Run(top + "paged"),
                     "TOP before the corrupt page");
    const storage::StorageStats stats = store.Stats();
    EXPECT_GE(stats.pager.checksum_failures, 1u);
    EXPECT_EQ(stats.pool.hits + stats.pool.misses, p + 1);
    EXPECT_THROW(Run("SELECT COUNT(*), MAX(kin_5) FROM paged"),
                 DataCorruption);
}

TEST_F(PagedScanTest, MorselsCloseInsideAPageBelowTheParallelCutoff)
{
    // 128 KiB pages of about 8000 rows: a morsel closes inside a page
    // one row short of kParallelRowCutoff, so every kernel call on it
    // runs inline on the thread that scores it and a pool task never
    // waits on the pool.
    const Dataset data = TiedData(30000);
    StoreTied(db_, data, Path("t.dbpages"), 16, std::size_t{1} << 17);
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    for (const std::string pattern :
         {"SELECT COUNT(*), AVG(SCORE(c)) FROM $",
          "SELECT TOP 20 f1, SCORE(c) FROM $ WHERE f2 < 0.9 "
          "ORDER BY SCORE(c) DESC"}) {
        auto on = [pattern](const std::string& table) {
            std::string sql = pattern;
            sql.replace(sql.find('$'), 1, table);
            return sql;
        };
        const QueryResult want = Run(on("mem"));
        tracer.Clear();
        ExpectSameResult(want, Run(on("paged")), pattern);
        double largest = 0.0;
        for (const trace::SpanRecord& span : tracer.Spans()) {
            if (span.stage != trace::StageKind::kKernel) {
                continue;
            }
            for (std::uint32_t a = 0; a < span.num_attrs; ++a) {
                if (std::string(span.attrs[a].key) == "rows") {
                    largest = std::max(largest, span.attrs[a].value);
                }
            }
        }
        EXPECT_EQ(largest, static_cast<double>(kParallelRowCutoff - 1))
            << pattern;
    }
    tracer.Clear();
}

TEST_F(PagedScanTest, KernelSpansParentToTheStatementSpan)
{
    const Dataset data = TiedData(20000);
    StoreTied(db_, data, Path("t.dbpages"), 64);
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    for (const char* table : {"paged", "mem"}) {
        const std::string sql =
            std::string("SELECT COUNT(*), AVG(SCORE(c)) FROM ") + table +
            " WHERE f2 > 0.3";
        plan::Planner planner(db_);
        const auto plan =
            planner.Plan(std::get<SelectStatement>(ParseSql(sql)), sql);
        tracer.Clear();
        trace::SpanContext statement;
        {
            trace::ScopedSpan span(trace::StageKind::kQuery, "statement");
            statement = span.context();
            (void)plan->Execute(db_);
        }
        ASSERT_TRUE(statement.valid());
        // Each kernel call opens a span under the statement's, wherever
        // the morsel was scored; the kernel's own chunk spans nest under
        // it.
        std::vector<trace::SpanRecord> kernel_spans;
        std::set<std::uint64_t> kernel_ids;
        for (const trace::SpanRecord& span : tracer.Spans()) {
            if (span.stage == trace::StageKind::kKernel) {
                kernel_spans.push_back(span);
                kernel_ids.insert(span.span_id);
            }
        }
        std::size_t calls = 0;
        for (const trace::SpanRecord& span : kernel_spans) {
            EXPECT_EQ(span.trace_id, statement.trace_id) << span.name;
            if (span.parent_id == statement.span_id) {
                ++calls;
            } else {
                EXPECT_EQ(kernel_ids.count(span.parent_id), 1u) << span.name;
            }
        }
        EXPECT_GE(calls, 10u) << sql;  // one per morsel, about 14000 rows
    }
    tracer.Clear();
}

TEST_F(PagedScanTest, LabelReadsPinEachLabelPageOnce)
{
    // Labels are read a page at a time, and each survivor carries its
    // label from the filter to the sink, so a statement that reads the
    // label in its filter, its sink or both pins each label page once
    // instead of once per row (or once per step).
    const Dataset data = MakeHiggs(12000, 98);
    db_.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.pool_pages = 16;
    storage::PagedTable& store =
        *db_.StoreDatasetPaged("paged", data, Path("t.dbpages"), options)
             .store();
    const std::size_t per_page =
        storage::PagePayloadBytes(options.page_size) / sizeof(float);
    const std::size_t label_pages =
        (data.num_rows() + per_page - 1) / per_page;
    ASSERT_GT(label_pages, 10u);
    auto on = [](const std::string& pattern, const std::string& table) {
        std::string sql = pattern;
        sql.replace(sql.find('$'), 1, table);
        return sql;
    };
    // The label in the filter, the sink, the sink of a feature scan,
    // and both the filter and the sink.
    const std::vector<std::string> statements = {
        "SELECT COUNT(*) FROM $ WHERE label = 1",
        "SELECT AVG(label), MIN(label), MAX(label) FROM $",
        "SELECT TOP 30 label, kin_0 FROM $ WHERE kin_0 > 1 "
        "ORDER BY label DESC",
        "SELECT kin_3, label FROM $ WHERE label < 0.5 AND kin_1 > 0.8 "
        "ORDER BY kin_3",
    };
    for (const std::string& pattern : statements) {
        const QueryResult want = Run(on(pattern, "mem"));
        ASSERT_FALSE(want.rows.empty()) << pattern;
        store.ResetStats();
        const QueryResult got = Run(on(pattern, "paged"));
        const storage::StorageStats stats = store.Stats();
        ExpectSameResult(want, got, pattern);
        EXPECT_EQ(stats.pool.hits + stats.pool.misses,
                  stats.pages_scanned + label_pages)
            << pattern;
    }
}

/**
 * A copy of @p forest whose leaf reached by row 0 of @p data in tree
 * @p tree predicts NaN (a stored regression leaf is not range-checked).
 */
RandomForest
WithNanLeaf(const RandomForest& forest, const Dataset& data, std::size_t tree)
{
    RandomForest out(forest.task(), forest.num_features(),
                     forest.num_classes());
    for (std::size_t t = 0; t < forest.NumTrees(); ++t) {
        const DecisionTree& src = forest.trees()[t];
        const std::int32_t nan_leaf =
            t == tree ? src.PredictLeaf(data.Row(0)) : -1;
        DecisionTree copy;
        for (std::int32_t n = 0; n < static_cast<std::int32_t>(src.NumNodes());
             ++n) {
            if (src.IsLeaf(n)) {
                copy.AddLeafNode(n == nan_leaf ? std::nanf("")
                                               : src.LeafValue(n));
            } else {
                copy.AddDecisionNode(src.Feature(n), src.Threshold(n));
            }
        }
        for (std::int32_t n = 0; n < static_cast<std::int32_t>(src.NumNodes());
             ++n) {
            if (!src.IsLeaf(n)) {
                copy.SetChildren(n, src.Left(n), src.Right(n));
            }
        }
        out.AddTree(std::move(copy));
    }
    return out;
}

/**
 * Rows for at least @p morsels 1024-row morsels beyond the shared
 * pool's window (twice its size), so a TOP n statement offers morsels
 * after its heap is full on any machine.
 */
std::size_t
RowsPastTheWindow(std::size_t min_rows, std::size_t morsels)
{
    return std::max(min_rows,
                    (2 * ThreadPool::Shared().size() + morsels) * 1024);
}

/**
 * Optimized and naive plans of @p sql on @p db agree row by row (two
 * NaN scores count as equal).
 */
void
ExpectOptimizedMatchesNaive(Database& db, const std::string& sql,
                            ThresholdStats* stats = nullptr)
{
    plan::Planner optimized(db, {true});
    plan::Planner naive(db, {false});
    const auto plan = optimized.PlanQuery(sql);
    const QueryResult want = naive.PlanQuery(sql)->Execute(db);
    const QueryResult got = plan->Execute(db);
    ASSERT_EQ(got.columns, want.columns) << sql;
    ASSERT_EQ(got.rows.size(), want.rows.size()) << sql;
    for (std::size_t r = 0; r < want.rows.size(); ++r) {
        ASSERT_EQ(got.rows[r].size(), want.rows[r].size()) << sql;
        for (std::size_t c = 0; c < want.rows[r].size(); ++c) {
            const double* a = std::get_if<double>(&got.rows[r][c]);
            const double* b = std::get_if<double>(&want.rows[r][c]);
            if (a == nullptr || b == nullptr || !std::isnan(*a) ||
                !std::isnan(*b)) {
                ASSERT_EQ(got.rows[r][c], want.rows[r][c])
                    << sql << " row " << r << " col " << c;
            }
        }
    }
    if (stats != nullptr) {
        *stats = plan->threshold_stats();
    }
}

TEST_F(PagedScanTest, RisingTopNThresholdMatchesTheNaivePlan)
{
    // A 64-tree regression model over more morsels than the pool's
    // window, in memory and on a page file 40x its pool.
    const Dataset data = MakeHiggs(RowsPastTheWindow(24000, 12), 99);
    std::vector<std::size_t> all(data.num_features());
    std::iota(all.begin(), all.end(), std::size_t{0});
    db_.StoreModel("r",
                   TreeEnsemble::FromForest(TrainRegression(data, all, 99, 64)));
    db_.StoreModel("q",
                   TreeEnsemble::FromForest(TrainRegression(data, {4, 2}, 98)));
    db_.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.pool_pages = 16;
    const Table& paged =
        db_.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);
    ASSERT_GT(paged.store()->NumDataPages(), 40 * options.pool_pages);

    const std::vector<std::string> shapes = {
        "SELECT TOP $n kin_0, SCORE(r) FROM $t ORDER BY SCORE(r) $d",
        "SELECT TOP $n kin_0, SCORE(r) FROM $t WHERE kin_1 < 0.5 "
        "ORDER BY SCORE(r) $d",
        "SELECT TOP $n kin_2, SCORE(q, kin_4, kin_2), SCORE(r) FROM $t "
        "ORDER BY SCORE(r) $d",
        "SELECT TOP $n kin_2, SCORE(r) FROM $t "
        "WHERE SCORE(q, kin_4, kin_2) > 0.2 ORDER BY SCORE(r) $d",
        "SELECT TOP $n kin_1, SCORE(r) FROM $t WHERE SCORE(r) > 0.3 "
        "ORDER BY SCORE(r) $d",
    };
    auto fill = [](std::string sql, const std::string& key,
                   const std::string& value) {
        sql.replace(sql.find(key), key.size(), value);
        return sql;
    };
    for (const char* table : {"mem", "paged"}) {
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{10}, std::size_t{100},
              std::size_t{1000}, data.num_rows() + 5}) {
            for (const char* dir : {"ASC", "DESC"}) {
                for (std::size_t s = 0; s < shapes.size(); ++s) {
                    const std::string sql = fill(
                        fill(fill(shapes[s], "$n", std::to_string(n)), "$t",
                             table),
                        "$d", dir);
                    ThresholdStats stats;
                    ExpectOptimizedMatchesNaive(db_, sql, &stats);
                    if (n <= 100 && s == 0) {
                        EXPECT_GT(stats.rows_decided_early, 0u) << sql;
                    }
                    if (n > data.num_rows() && s != 3) {
                        // The heap never fills: no threshold exists.
                        EXPECT_EQ(stats.rows, 0u) << sql;
                    }
                }
            }
        }
    }
}

/**
 * One optimized run of @p sql: the rows its kernel calls scored in
 * full (Predict's spans), and the rows that ran PredictThreshold.
 */
std::pair<std::size_t, std::size_t>
ScoredInFullAndThresholded(Database& db, const std::string& sql)
{
    plan::Planner planner(db);
    const auto plan = planner.PlanQuery(sql);
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.Clear();
    (void)plan->Execute(db);
    double full = 0.0;
    for (const trace::SpanRecord& span : tracer.Spans()) {
        if (std::string(span.name) != "forest-kernel") {
            continue;
        }
        for (std::uint32_t a = 0; a < span.num_attrs; ++a) {
            if (std::string(span.attrs[a].key) == "rows") {
                full += span.attrs[a].value;
            }
        }
    }
    tracer.Clear();
    return {static_cast<std::size_t>(full),
            static_cast<std::size_t>(plan->threshold_stats().rows)};
}

TEST_F(PagedScanTest, RisingTopNThresholdKeepsTiesInScanOrder)
{
    // SCORE(t, f0) takes one value per f0 = r % 5, so each score is
    // shared by a fifth of the rows. TOP n cuts inside a tie group and
    // exactly at its boundary: the heap keeps the earliest rows of the
    // group, and a later tied row never beats the threshold. At TOP n
    // <= 100 the first morsel fills the heap with the extreme score, so
    // the strict cut drops every later row, tied ones included, before
    // any of them is scored in full.
    const Dataset data = TiedData(RowsPastTheWindow(20000, 12));
    StoreTied(db_, data, Path("t.dbpages"), 16);
    db_.StoreModel("t",
                   TreeEnsemble::FromForest(TrainRegression(data, {0}, 97, 16)));
    const std::size_t group = data.num_rows() / 5;
    for (const char* table : {"mem", "paged"}) {
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{7}, std::size_t{100}, group - 1,
              group, group + 1, 2 * group, 2 * group + 1}) {
            for (const char* dir : {"ASC", "DESC"}) {
                const std::string sql =
                    "SELECT TOP " + std::to_string(n) +
                    " f1, f0, SCORE(t, f0) FROM " + table +
                    " ORDER BY SCORE(t, f0) " + dir;
                ExpectOptimizedMatchesNaive(db_, sql);
                if (n <= 100) {
                    const auto [full, thresholded] =
                        ScoredInFullAndThresholded(db_, sql);
                    EXPECT_GT(thresholded, 0u) << sql;
                    EXPECT_EQ(full + thresholded, data.num_rows()) << sql;
                }
            }
        }
    }
}

TEST_F(PagedScanTest, RisingTopNThresholdWithANanLeaf)
{
    // One leaf of tree 20 predicts NaN. A NaN key can enter the heap
    // only while it has room, and then no threshold is ever taken; a
    // NaN-free full heap keeps rejecting NaN rows. Either way the
    // result is the naive plan's.
    const Dataset data = MakeHiggs(RowsPastTheWindow(20000, 12), 96);
    std::vector<std::size_t> all(data.num_features());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const RandomForest nan_forest =
        WithNanLeaf(TrainRegression(data, all, 96, 32), data, 20);
    db_.StoreModel("n", TreeEnsemble::FromForest(nan_forest));
    db_.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.pool_pages = 16;
    db_.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);
    const std::vector<float> scores = nan_forest.PredictBatch(data);
    ASSERT_TRUE(std::isnan(scores[0]));
    bool thresholded = false;
    for (const char* table : {"mem", "paged"}) {
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{5}, std::size_t{100},
              std::size_t{2000}}) {
            for (const char* dir : {"ASC", "DESC"}) {
                for (const char* where : {"", " WHERE kin_0 > 0"}) {
                    const std::string sql =
                        "SELECT TOP " + std::to_string(n) +
                        " kin_0, SCORE(n) FROM " + table + where +
                        " ORDER BY SCORE(n) " + dir;
                    ThresholdStats stats;
                    ExpectOptimizedMatchesNaive(db_, sql, &stats);
                    thresholded = thresholded || stats.rows > 0;
                }
            }
        }
    }
    EXPECT_TRUE(thresholded);
}

TEST_F(PagedScanTest, RisingTopNThresholdIsDeterministicAndOnPoolThreads)
{
    ThreadPool& pool = ThreadPool::Shared();
    const Dataset data = MakeHiggs(RowsPastTheWindow(20000, 16), 95);
    std::vector<std::size_t> all(data.num_features());
    std::iota(all.begin(), all.end(), std::size_t{0});
    db_.StoreModel("r",
                   TreeEnsemble::FromForest(TrainRegression(data, all, 95, 64)));
    db_.StoreDataset("mem", data);
    storage::StorageOptions options;
    options.pool_pages = 16 + 2 * pool.size();
    db_.StoreDatasetPaged("paged", data, Path("t.dbpages"), options);
    plan::Planner planner(db_);
    std::vector<std::shared_ptr<const plan::PhysicalPlan>> plans;
    std::vector<QueryResult> serial;
    for (const char* table : {"mem", "paged"}) {
        for (const char* tail : {" ORDER BY SCORE(r) DESC",
                                 " WHERE kin_3 < 1 ORDER BY SCORE(r)"}) {
            const std::string sql =
                std::string("SELECT TOP 50 kin_0, SCORE(r) FROM ") + table +
                tail;
            plans.push_back(planner.PlanQuery(sql));
            // Two runs of one plan do the same early-exit work: each
            // morsel's threshold is taken on the statement thread.
            serial.push_back(plans.back()->Execute(db_));
            const ThresholdStats once = plans.back()->threshold_stats();
            ExpectSameResult(serial.back(), plans.back()->Execute(db_), sql);
            const ThresholdStats twice = plans.back()->threshold_stats();
            EXPECT_GT(once.rows_decided_early, 0u) << sql;
            EXPECT_EQ(twice.rows, 2 * once.rows) << sql;
            EXPECT_EQ(twice.rows_decided_early, 2 * once.rows_decided_early)
                << sql;
            EXPECT_EQ(twice.tree_traversals, 2 * once.tree_traversals) << sql;
        }
    }
    // Twice the pool's size of statements on the pool's own threads.
    const std::size_t n = 2 * pool.size();
    std::vector<QueryResult> got(n);
    pool.ParallelFor(n, [&](std::size_t i) {
        got[i] = plans[i % plans.size()]->Execute(db_);
    });
    for (std::size_t i = 0; i < n; ++i) {
        ExpectSameResult(serial[i % plans.size()], got[i], "pool thread");
    }
}

TEST_F(PagedScanTest, RisingTopNThresholdNeedsAKernelThatExitsEarly)
{
    // An 8-tree regression kernel decides rows only at its last tree,
    // and a vote classifier never early-exits: both keep full scoring,
    // and the plan withdraws the rule.
    const Dataset data = MakeHiggs(12000, 94);
    std::vector<std::size_t> all(data.num_features());
    std::iota(all.begin(), all.end(), std::size_t{0});
    db_.StoreModel("r8",
                   TreeEnsemble::FromForest(TrainRegression(data, all, 94, 8)));
    ForestTrainerConfig config;
    config.num_trees = 16;
    config.max_depth = 6;
    config.seed = 94;
    db_.StoreModel("c", TreeEnsemble::FromForest(TrainForest(data, config)));
    db_.StoreDataset("mem", data);
    plan::Planner planner(db_);
    for (const char* model : {"r8", "c"}) {
        const std::string sql = std::string("SELECT TOP 10 kin_0, SCORE(") +
                                model + ") FROM mem ORDER BY SCORE(" +
                                model + ") DESC";
        const auto plan = planner.PlanQuery(sql);
        for (const std::string& rule : plan->logical().applied_rules) {
            EXPECT_EQ(rule.find("score-topn-threshold"), std::string::npos)
                << sql;
        }
        EXPECT_EQ(plan->logical().ToString().find("[rising-threshold]"),
                  std::string::npos)
            << sql;
        ExpectOptimizedMatchesNaive(db_, sql);
        EXPECT_EQ(plan->threshold_stats().rows, 0u) << sql;
    }
}

TEST_F(PagedScanTest, InMemoryTopWithoutOrderByScoresOneMorsel)
{
    // In-memory rows run as 1024-row morsels too, so TOP n without
    // ORDER BY stops after the morsel that holds its n-th row. A score
    // whose feature list is not the table's feature columns in order
    // converts its own columns of the rows it scores, one morsel here,
    // not of the whole table.
    const Dataset data = TiedData(20000);
    StoreTied(db_, data, Path("t.dbpages"), 64);
    const std::string reordered =
        "SELECT TOP 5 f1, SCORE(c, f1, f0, f2, f3) FROM mem";
    for (const std::string& sql :
         {std::string("SELECT TOP 5 f1, SCORE(c) FROM mem"), reordered}) {
        const auto [full, thresholded] =
            ScoredInFullAndThresholded(db_, sql);
        EXPECT_GT(full, 0u) << sql;
        EXPECT_LE(full, 1024u) << sql;
        EXPECT_EQ(thresholded, 0u) << sql;
        const QueryResult got = Run(sql);
        ASSERT_EQ(got.rows.size(), 5u) << sql;
        for (std::size_t r = 0; r < got.rows.size(); ++r) {
            EXPECT_EQ(got.rows[r][0], Value(static_cast<double>(r))) << sql;
        }
        ExpectOptimizedMatchesNaive(db_, sql);
    }
    RowBlock::ResetCopyStats();
    (void)Run(reordered);
    EXPECT_LE(RowBlock::CopyStats().bytes, 1024u * 4u * sizeof(float));
}

}  // namespace
}  // namespace dbscore

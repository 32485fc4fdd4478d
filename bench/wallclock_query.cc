/**
 * @file
 * Wall-clock planner bench: the same `SCORE(...) > θ` scan planned
 * naively (optimize=false: stream every page, filter row-by-row) and
 * through the rewriter (zone-map predicate pushdown + score-threshold
 * pushdown), swept across plain-predicate
 * selectivities of 1% / 10% / 50% / 90% on a paged table clustered on
 * the filtered column.
 *
 * Like the other wallclock_* benches the millisecond numbers are REAL
 * wall-clock measurements and machine-dependent. What the bench
 * *asserts* is (mostly) machine-independent:
 *
 *   - every optimized result is identical to the naive result at every
 *     selectivity (COUNT values and a full SCORE-projection query);
 *   - the selective sweeps (<= 10%) actually pruned pages via the
 *     pushed-down zone predicate;
 *   - paired-median guard: at <= 10% selectivity the rewritten plan is
 *     at least kMinSelectiveSpeedup x faster than the naive plan
 *     (median of paired per-repeat ratios, so a single noisy repeat on
 *     a busy machine cannot flip the verdict).
 *
 * Emits BENCH_query.json.
 *
 * Flags:
 *   --smoke     small row counts for CI smoke runs
 *   --out=PATH  JSON output path (default BENCH_query.json)
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbscore/common/string_util.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/dbms/value.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/storage/paged_table.h"

namespace dbscore::bench {
namespace {

/** Acceptance floor for the selective (<= 10%) sweeps. */
constexpr double kMinSelectiveSpeedup = 2.0;

struct SweepResult {
    double selectivity_pct = 0.0;
    float cut = 0.0f;
    std::size_t scan_matches = 0;
    std::int64_t result_count = 0;
    double naive_median_ms = 0.0;
    double pushdown_median_ms = 0.0;
    double speedup = 0.0;
    std::uint64_t naive_pages_scanned = 0;
    std::uint64_t pushdown_pages_scanned = 0;
    std::uint64_t pushdown_pages_pruned = 0;
    bool identical = false;
    bool guarded = false;
};

/** RAII scratch directory so failed runs don't leak page files. */
struct ScratchDir {
    std::filesystem::path path;

    explicit ScratchDir(const std::string& name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;  // best-effort; never throw from a dtor
        std::filesystem::remove_all(path, ec);
    }
};

/** Copy of @p data with rows sorted ascending by feature 0, so the
 * page zone maps on that column are maximally selective. */
Dataset
ClusterByFeature0(const Dataset& data)
{
    const std::size_t rows = data.num_rows();
    const std::size_t cols = data.num_features();
    std::vector<std::size_t> order(rows);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return data.At(a, 0) < data.At(b, 0);
                     });
    std::vector<float> values(rows * cols);
    std::vector<float> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        std::memcpy(&values[r * cols], data.Row(order[r]),
                    cols * sizeof(float));
        labels[r] = data.Label(order[r]);
    }
    Dataset out(data.name() + "_clustered", data.task(), cols,
                data.num_classes());
    out.Assign(std::move(values), std::move(labels));
    out.feature_names() = data.feature_names();
    return out;
}

double
Median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** True when both results hold the same rows, Value by Value. */
bool
SameRows(const QueryResult& a, const QueryResult& b)
{
    if (a.rows.size() != b.rows.size()) {
        return false;
    }
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        if (a.rows[r].size() != b.rows[r].size()) {
            return false;
        }
        for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
            if (CompareValues(a.rows[r][c], b.rows[r][c]) != 0) {
                return false;
            }
        }
    }
    return true;
}

int
Run(bool smoke, const std::string& out_path)
{
    const std::size_t num_rows = smoke ? 20000 : 120000;
    const int repeats = smoke ? 5 : 9;
    const Dataset data = ClusterByFeature0(MakeHiggs(num_rows, 42));

    // Small training sample, same 28-feature HIGGS schema: the bench
    // measures scan/plan work, so the model stays deliberately cheap.
    ForestTrainerConfig trainer;
    trainer.num_trees = 8;
    trainer.max_depth = 6;
    trainer.seed = 42;
    const RandomForest forest = TrainForest(MakeHiggs(4000, 7), trainer);

    ScratchDir scratch("dbscore_wallclock_query");
    const std::string page_path = (scratch.path / "higgs.dbpages").string();

    Database db;
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    storage::StorageOptions options;
    Table& probe = db.StoreDatasetPaged("probe", data, page_path, options);
    const std::size_t data_pages = probe.store()->Stats().data_pages;
    // Undersized pool: every full scan streams from disk, so the naive
    // plan pays real page I/O that the pushed-down zone scan skips.
    options.pool_pages =
        std::max<std::size_t>(4, data_pages / 8);
    Table& table = db.AttachPagedTable("paged", page_path, options);

    plan::PlannerOptions naive_options;
    naive_options.optimize = false;
    plan::Planner naive(db, naive_options);
    plan::Planner pushdown(db, plan::PlannerOptions{});

    std::cout << "wallclock_query (real wall time, machine-dependent; "
              << (smoke ? "smoke" : "full") << " mode, " << num_rows
              << " rows, " << data_pages << " data pages, pool "
              << options.pool_pages << " pages, " << repeats
              << " paired repeats)\n"
              << " select%        cut  count  naive-ms   push-ms "
              << "speedup  pruned identical\n";

    std::vector<SweepResult> results;
    bool all_identical = true;
    bool guard_pass = true;
    for (double selectivity : {0.01, 0.10, 0.50, 0.90}) {
        const std::size_t cut_row = static_cast<std::size_t>(
            static_cast<double>(num_rows) * (1.0 - selectivity));
        const float cut = data.At(std::min(cut_row, num_rows - 1), 0);

        const std::string sql = StrFormat(
            "SELECT COUNT(*) FROM paged WHERE kin_0 > %.9g AND "
            "SCORE(m) > 0.5",
            static_cast<double>(cut));
        auto naive_plan = naive.PlanQuery(sql);
        auto push_plan = pushdown.PlanQuery(sql);

        SweepResult r;
        r.selectivity_pct = selectivity * 100.0;
        r.cut = cut;
        r.scan_matches = num_rows - cut_row;

        // Warm-up + correctness: the rewritten plan must return the
        // same COUNT as the naive full scan.
        QueryResult naive_result = naive_plan->Execute(db);
        QueryResult push_result = push_plan->Execute(db);
        r.result_count = static_cast<std::int64_t>(
            ValueAsDouble(naive_result.rows.at(0).at(0)));
        r.identical = SameRows(naive_result, push_result);

        // Paired repeats: naive then pushdown back to back, so both
        // see the same machine state; the guard uses the median of the
        // per-pair ratios.
        std::vector<double> naive_ms;
        std::vector<double> push_ms;
        std::vector<double> pair_ratio;
        for (int i = 0; i < repeats; ++i) {
            auto start = std::chrono::steady_clock::now();
            naive_plan->Execute(db);
            const double n = SecondsSince(start) * 1e3;
            start = std::chrono::steady_clock::now();
            push_plan->Execute(db);
            const double p = SecondsSince(start) * 1e3;
            naive_ms.push_back(n);
            push_ms.push_back(p);
            pair_ratio.push_back(n / std::max(p, 1e-6));
        }
        r.naive_median_ms = Median(naive_ms);
        r.pushdown_median_ms = Median(push_ms);
        r.speedup = Median(pair_ratio);

        // Page accounting for one run of each plan.
        table.store()->ResetStats();
        naive_plan->Execute(db);
        r.naive_pages_scanned = table.store()->Stats().pages_scanned;
        table.store()->ResetStats();
        push_plan->Execute(db);
        r.pushdown_pages_scanned = table.store()->Stats().pages_scanned;
        r.pushdown_pages_pruned = table.store()->Stats().pages_pruned;

        all_identical = all_identical && r.identical;
        if (selectivity <= 0.10) {
            r.guarded = true;
            guard_pass = guard_pass &&
                         r.speedup >= kMinSelectiveSpeedup &&
                         r.pushdown_pages_pruned > 0;
        }
        std::printf("%7.1f %10.4g %6lld %9.3f %9.3f %7.2f %7llu %9s\n",
                    r.selectivity_pct, static_cast<double>(r.cut),
                    static_cast<long long>(r.result_count),
                    r.naive_median_ms, r.pushdown_median_ms, r.speedup,
                    static_cast<unsigned long long>(
                        r.pushdown_pages_pruned),
                    r.identical ? "yes" : "NO");
        results.push_back(r);
    }

    // Full-row identity on a value-producing shape: projection of the
    // score plus ORDER BY SCORE + TOP, at the 10% cut.
    const std::string value_sql = StrFormat(
        "SELECT TOP 100 kin_0, SCORE(m) FROM paged WHERE kin_0 > %.9g "
        "ORDER BY SCORE(m) DESC",
        static_cast<double>(results[1].cut));
    const bool value_identical =
        SameRows(naive.PlanQuery(value_sql)->Execute(db),
                 pushdown.PlanQuery(value_sql)->Execute(db));
    all_identical = all_identical && value_identical;
    std::cout << "ORDER BY SCORE projection identical: "
              << (value_identical ? "yes" : "NO") << "\n";

    BenchJsonWriter doc("wallclock_query", smoke);
    doc.header()
        .Int("rows", num_rows)
        .Int("cols", data.num_features())
        .Int("trees", trainer.num_trees)
        .Int("depth", trainer.max_depth)
        .Int("data_pages", data_pages)
        .Int("pool_pages", options.pool_pages)
        .Int("repeats", static_cast<std::uint64_t>(repeats))
        .Num("score_threshold", 0.5)
        .Num("guard_min_speedup", kMinSelectiveSpeedup)
        .Bool("value_query_identical", value_identical)
        .Bool("guard_pass", guard_pass);
    for (const SweepResult& r : results) {
        doc.AddResult()
            .Num("selectivity_pct", r.selectivity_pct)
            .Num("cut", static_cast<double>(r.cut))
            .Int("scan_matches", r.scan_matches)
            .Int("result_count",
                 static_cast<std::uint64_t>(r.result_count))
            .Num("naive_median_ms", r.naive_median_ms)
            .Num("pushdown_median_ms", r.pushdown_median_ms)
            .Num("speedup", r.speedup)
            .Int("naive_pages_scanned", r.naive_pages_scanned)
            .Int("pushdown_pages_scanned", r.pushdown_pages_scanned)
            .Int("pushdown_pages_pruned", r.pushdown_pages_pruned)
            .Bool("identical", r.identical)
            .Bool("guarded", r.guarded);
    }
    doc.Write(out_path);
    std::cout << "wrote " << out_path << "\n";

    if (!all_identical) {
        std::cerr << "FAIL: a rewritten plan diverged from the naive "
                  << "plan of the same statement\n";
        return 1;
    }
    if (!guard_pass) {
        std::cerr << "FAIL: a selective (<= 10%) sweep missed the "
                  << kMinSelectiveSpeedup
                  << "x paired-median speedup or pruned no pages\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace dbscore::bench

int
main(int argc, char** argv)
{
    const dbscore::bench::BenchArgs args = dbscore::bench::ParseBenchArgs(
        argc, argv, "wallclock_query", "BENCH_query.json");
    if (!args.ok) {
        return 2;
    }
    return dbscore::bench::Run(args.smoke, args.out_path);
}

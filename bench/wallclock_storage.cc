/**
 * @file
 * Wall-clock out-of-core scoring bench: the same scoring query run
 * against an in-memory table and against a paged table whose buffer
 * pool is swept across working-set/pool ratios (0.5x, 1x, 2x, 4x —
 * i.e. from "everything fits twice over" to "only a quarter of the
 * pages fit").
 *
 * Like the other wallclock_* benches the throughput numbers are REAL
 * wall-clock measurements and machine-dependent. What the bench
 * *asserts* is machine-independent:
 *
 *   - predictions from the streamed paged path are bit-identical to
 *     the in-memory path at EVERY pool ratio (eviction pressure must
 *     never change an answer);
 *   - at ratios > 1 the pool actually evicts (the table does not fit),
 *     so the run demonstrably exercised out-of-core streaming.
 *
 * The table is clustered on feature 0 before storing, so the header
 * also reports how many pages a selective zone-map scan pruned.
 * Emits BENCH_storage.json.
 *
 * Flags:
 *   --smoke     small row counts for CI smoke runs
 *   --out=PATH  JSON output path (default BENCH_storage.json)
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
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/storage/paged_table.h"

namespace dbscore::bench {
namespace {

struct RatioResult {
    double ratio = 0.0;
    std::size_t pool_pages = 0;
    std::size_t data_pages = 0;
    std::size_t rows = 0;
    double score_ms = 0.0;
    double rows_per_sec = 0.0;
    double hit_ratio = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t page_reads = 0;
    bool bit_identical = false;
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

/** Copy of @p data with rows sorted ascending by feature 0. */
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
    return out;
}

int
Run(bool smoke, const std::string& out_path)
{
    const std::size_t num_rows = smoke ? 4000 : 40000;
    const Dataset data = ClusterByFeature0(MakeHiggs(num_rows, 42));

    ForestTrainerConfig trainer;
    trainer.num_trees = 8;
    trainer.max_depth = 8;
    trainer.seed = 42;
    const RandomForest forest = TrainForest(data, trainer);

    ScratchDir scratch("dbscore_wallclock_storage");
    const std::string page_path = (scratch.path / "higgs.dbpages").string();

    Database db;
    db.StoreDataset("mem", data);
    db.StoreModel("model", TreeEnsemble::FromForest(forest));
    // Build the page file once; each ratio re-attaches it with its own
    // pool size so every run starts from a cold pool.
    storage::StorageOptions build_options;
    Table& build = db.StoreDatasetPaged("paged_build", data, page_path,
                                        build_options);
    const std::size_t data_pages = build.store()->Stats().data_pages;

    ExternalRuntimeParams runtime_params;
    HardwareProfile profile = HardwareProfile::Paper();
    ScoringPipeline pipeline(db, profile, runtime_params);

    const std::vector<float> reference =
        pipeline
            .RunScoringQuery("model", "mem", BackendKind::kCpuSklearn)
            .predictions;

    // Zone-map pruning on the clustered table: select the top ~10% of
    // feature 0 and report how many pages the zone maps skipped.
    float f0_max = data.At(0, 0);
    float f0_min = f0_max;
    for (std::size_t r = 0; r < num_rows; ++r) {
        f0_max = std::max(f0_max, data.At(r, 0));
        f0_min = std::min(f0_min, data.At(r, 0));
    }
    storage::ScanPredicate pred;
    pred.column = 0;
    pred.min = f0_min + 0.9f * (f0_max - f0_min);
    pred.max = f0_max;
    build.store()->ResetStats();
    {
        storage::FeatureStream pruned_scan = build.store()->Scan(pred);
        storage::StreamChunk chunk;
        while (pruned_scan.Next(chunk)) {
        }
    }
    const storage::StorageStats zone_stats = build.store()->Stats();

    std::cout << "wallclock_storage (real wall time, machine-dependent; "
              << (smoke ? "smoke" : "full") << " mode, " << num_rows
              << " rows, " << data_pages << " data pages)\n"
              << "zone-map scan (top decile of f0): "
              << zone_stats.pages_pruned << "/" << data_pages
              << " pages pruned\n"
              << " ratio pool-pages  score-ms     rows/s hit-ratio "
              << "evictions identical\n";

    std::vector<RatioResult> results;
    bool all_identical = true;
    bool pressure_evicts = true;
    int attach = 0;
    for (double ratio : {0.5, 1.0, 2.0, 4.0}) {
        storage::StorageOptions options;
        options.pool_pages = std::max<std::size_t>(
            2, static_cast<std::size_t>(
                   static_cast<double>(data_pages) / ratio + 0.5));
        const std::string table_name = "paged_r" + std::to_string(attach++);
        Table& table = db.AttachPagedTable(table_name, page_path, options);

        table.store()->ResetStats();
        const auto start = std::chrono::steady_clock::now();
        const std::vector<float> predictions =
            pipeline
                .RunScoringQuery("model", table_name,
                                 BackendKind::kCpuSklearn)
                .predictions;
        const double seconds = SecondsSince(start);
        const storage::StorageStats stats = table.store()->Stats();

        RatioResult r;
        r.ratio = ratio;
        r.pool_pages = options.pool_pages;
        r.data_pages = data_pages;
        r.rows = num_rows;
        r.score_ms = seconds * 1e3;
        r.rows_per_sec = static_cast<double>(num_rows) / seconds;
        r.hit_ratio = stats.pool.HitRatio();
        r.hits = stats.pool.hits;
        r.misses = stats.pool.misses;
        r.evictions = stats.pool.evictions;
        r.page_reads = stats.pager.reads;
        r.bit_identical =
            predictions.size() == reference.size() &&
            std::memcmp(predictions.data(), reference.data(),
                        reference.size() * sizeof(float)) == 0;
        all_identical = all_identical && r.bit_identical;
        if (ratio > 1.0) {
            pressure_evicts = pressure_evicts && r.evictions > 0;
        }
        std::printf("%6.1f %10zu %9.2f %10.0f %9.3f %9llu %9s\n",
                    r.ratio, r.pool_pages, r.score_ms, r.rows_per_sec,
                    r.hit_ratio,
                    static_cast<unsigned long long>(r.evictions),
                    r.bit_identical ? "yes" : "NO");
        results.push_back(r);
    }

    BenchJsonWriter doc("wallclock_storage", smoke);
    doc.header()
        .Int("rows", num_rows)
        .Int("cols", data.num_features())
        .Int("data_pages", data_pages)
        .Int("zone_pages_scanned", zone_stats.pages_scanned)
        .Int("zone_pages_pruned", zone_stats.pages_pruned);
    for (const RatioResult& r : results) {
        doc.AddResult()
            .Num("working_set_over_pool", r.ratio)
            .Int("pool_pages", r.pool_pages)
            .Int("data_pages", r.data_pages)
            .Int("rows", r.rows)
            .Num("score_ms", r.score_ms)
            .Num("rows_per_sec", r.rows_per_sec)
            .Num("hit_ratio", r.hit_ratio)
            .Int("hits", r.hits)
            .Int("misses", r.misses)
            .Int("evictions", r.evictions)
            .Int("page_reads", r.page_reads)
            .Bool("bit_identical", r.bit_identical);
    }
    doc.Write(out_path);
    std::cout << "wrote " << out_path << "\n";

    if (!all_identical) {
        std::cerr << "FAIL: paged predictions diverged from the "
                  << "in-memory reference\n";
        return 1;
    }
    if (!pressure_evicts) {
        std::cerr << "FAIL: a ratio > 1 run never evicted — the sweep "
                  << "did not exercise out-of-core streaming\n";
        return 1;
    }
    if (zone_stats.pages_pruned == 0) {
        std::cerr << "FAIL: the clustered zone-map scan pruned nothing\n";
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
        argc, argv, "wallclock_storage", "BENCH_storage.json");
    if (!args.ok) {
        return 2;
    }
    return dbscore::bench::Run(args.smoke, args.out_path);
}

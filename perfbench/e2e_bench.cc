/**
 * @file
 * dbscore's end-to-end wall-clock benchmark. README.md beside this file
 * describes the workloads, the metrics and which later change should
 * move which metric.
 *
 *   e2e_bench --workload W --seed N --seconds S --trace 0|1 --tmp-dir D
 *
 * One process runs one workload. With --trace 0 it measures the
 * end-to-end metrics; the program's own always-on trace stays at its
 * default and the benchmark adds nothing around the calls it times.
 * With --trace 1 the same operations run with the benchmark's spans
 * around each layer's public entry points (the program itself is not
 * changed), and the run prints the per-layer metrics plus a report
 * table. Every output is checked. Page files go to a scratch directory
 * under D that is removed on exit. The last stdout line is the JSON
 * result; everything else is report text.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "dbscore/common/rng.h"
#include "dbscore/common/string_util.h"
#include "dbscore/core/calibration.h"
#include "dbscore/data/row_block.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/dbms/sql.h"
#include "dbscore/dbms/value.h"
#include "dbscore/fleet/fleet_service.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/kernel_autotune.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/onnx_like.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/storage/paged_table.h"
#include "dbscore/trace/trace.h"

namespace dbscore::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using trace::StageKind;

// ---------------------------------------------------------------------------
// Small helpers: timing, statistics, digest, the result line.

double
MsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

double
MsSince(Clock::time_point start)
{
    return MsBetween(start, Clock::now());
}

/** Linear-interpolation quantile (numpy's default); @p q in [0, 1]. */
double
Quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
Sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Two seeds mixed into one stream seed (SplitMix64 finalizer). */
std::uint64_t
Mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over the generated inputs: equal seeds print equal digests. */
class Digest {
 public:
    void
    Add(const void* data, std::size_t bytes)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
        }
    }
    void Add(const std::string& s) { Add(s.data(), s.size()); }
    void Add(const std::vector<float>& v) { Add(v.data(), v.size() * 4); }
    void Add(const TreeEnsemble& model)
    {
        const std::vector<std::uint8_t> blob = model.Serialize();
        Add(blob.data(), blob.size());
    }

    std::string Hex() const { return StrFormat("%016llx", hash_); }

 private:
    unsigned long long hash_ = 0xcbf29ce484222325ULL;
};

/** The run's verdict and metrics, printed as the last stdout line. */
class Result {
 public:
    /** One attempted operation; @p ok false counts it as failed. */
    void
    Op(bool ok, const std::string& what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            Fail(what);
        }
    }

    /** A failed check that is not itself an operation. */
    void
    Fail(const std::string& what)
    {
        correct_ = false;
        if (++reported_ <= 10) {
            std::cerr << "check failed: " << what << "\n";
        }
    }

    void
    Metric(const std::string& name, double value, const char* unit)
    {
        if (!std::isfinite(value)) {
            Fail("metric " + name + " is not finite");
            value = 0.0;
        }
        metrics_.emplace_back(name, value, unit);
    }

    bool correct() const { return correct_ && attempted_ > 0; }

    std::string
    Json() const
    {
        std::string out = StrFormat(
            "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"metrics\": {",
            correct() ? "true" : "false",
            static_cast<unsigned long long>(attempted_),
            static_cast<unsigned long long>(failed_));
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const auto& [name, value, unit] = metrics_[i];
            out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i > 0 ? ", " : "", name.c_str(), value,
                             unit.c_str());
        }
        return out + "}}";
    }

 private:
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t reported_ = 0;
    std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tmp_dir;
};

/** Scratch directory for page files, removed when the run ends. */
class ScratchDir {
 public:
    explicit ScratchDir(const std::string& parent)
        : path_(std::filesystem::path(parent) /
                StrFormat("e2e-%llu",
                          static_cast<unsigned long long>(
                              Clock::now().time_since_epoch().count())))
    {
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;  // best effort; never throw from a destructor
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    const std::filesystem::path& path() const { return path_; }

 private:
    std::filesystem::path path_;
};

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Runs @p setup @p repeats times and keeps the last fixture; setup_s is
 * the median set-up time, so one slow set-up does not move it. Earlier
 * fixtures are destroyed outside the timed region.
 */
template <typename Fixture>
Fixture
TimedSetup(int repeats, const std::function<Fixture(int)>& setup,
           std::vector<double>& setup_s)
{
    std::optional<Fixture> kept;
    for (int i = 0; i < repeats; ++i) {
        kept.reset();
        const auto start = Clock::now();
        Fixture f = setup(i);
        setup_s.push_back(MsSince(start) / 1e3);
        kept.emplace(std::move(f));
    }
    return std::move(*kept);
}

/**
 * End-to-end metrics over the measured windows (one SQL block or one
 * burst round each). The run reports the metrics over its fastest
 * quarter of windows, ranked by throughput: on a shared machine a
 * neighbour can slow a core by a third for seconds at a time, and the
 * fast quarter stays put as long as a quarter of the windows ran
 * unslowed, where statistics over all windows move with the share of
 * slowed ones. Every window holds the same mix of operations.
 */
class Windows {
 public:
    /** One window: its operations' latencies and the wall time they took. */
    void
    Add(std::vector<double> latency_ms, double wall_ms)
    {
        windows_.push_back({std::move(latency_ms), wall_ms});
    }

    /**
     * The end-to-end metrics; the tail is p90 for SQL sessions and p99
     * for bursts, the highest percentile with at least ten samples
     * beyond it in the pooled fast quarter.
     */
    void
    Emit(bool tail_p99, const std::vector<double>& setup_s,
         Result& result)
    {
        auto rate = [](const Window& w) {
            return static_cast<double>(w.latency_ms.size()) / w.wall_ms;
        };
        std::sort(windows_.begin(), windows_.end(),
                  [&](const Window& a, const Window& b) {
                      return rate(a) > rate(b);
                  });
        const std::size_t kept = (windows_.size() + 3) / 4;
        std::vector<double> latency_ms;
        double wall_ms = 0.0;
        for (std::size_t i = 0; i < kept; ++i) {
            latency_ms.insert(latency_ms.end(),
                              windows_[i].latency_ms.begin(),
                              windows_[i].latency_ms.end());
            wall_ms += windows_[i].wall_ms;
        }
        std::printf("fastest %zu of %zu windows: %zu operations\n", kept,
                    windows_.size(), latency_ms.size());
        result.Metric("latency_p50_ms", Quantile(latency_ms, 0.5), "ms");
        result.Metric("latency_tail_ms",
                      Quantile(latency_ms, tail_p99 ? 0.99 : 0.9), "ms");
        result.Metric("ops_per_s",
                      Ratio(static_cast<double>(latency_ms.size()),
                            wall_ms / 1e3),
                      "1/s");
        result.Metric("setup_s", Quantile(setup_s, 0.5), "s");
        result.Metric("peak_rss_mb", PeakRssMb(), "MB");
    }

 private:
    struct Window {
        std::vector<double> latency_ms;
        double wall_ms = 0.0;
    };
    std::vector<Window> windows_;
};

// ---------------------------------------------------------------------------
// Traced-run bookkeeping.

/** Per-operation samples of each layer, in first-use order. */
class LayerTable {
 public:
    void
    Add(const std::string& layer, double value)
    {
        auto [it, inserted] = samples_.try_emplace(layer);
        if (inserted) {
            order_.push_back(layer);
        }
        it->second.push_back(value);
    }

    double
    Total(const std::string& layer) const
    {
        auto it = samples_.find(layer);
        return it == samples_.end() ? 0.0 : Sum(it->second);
    }

    double
    Mean(const std::string& layer) const
    {
        auto it = samples_.find(layer);
        return it == samples_.end() || it->second.empty()
                   ? 0.0
                   : Sum(it->second) /
                         static_cast<double>(it->second.size());
    }

    /**
     * One row per layer: samples, mean, quartiles and share of the
     * @p root layer's time (of all layers' time when @p root is empty).
     */
    void
    Print(const std::string& title, const std::string& root) const
    {
        double root_total = Total(root);
        if (root.empty()) {
            for (const auto& [layer, v] : samples_) {
                root_total += Sum(v);
            }
        }
        std::printf("\n%s (ms per operation; spread = p25..p75)\n", title.c_str());
        std::printf("  %-22s %7s %10s %10s %10s %10s %8s\n", "layer", "n",
                    "mean", "p25", "p50", "p75", "of root");
        for (const std::string& layer : order_) {
            const std::vector<double>& v = samples_.at(layer);
            std::printf("  %-22s %7zu %10.4f %10.4f %10.4f %10.4f %7.1f%%\n",
                        layer.c_str(), v.size(), Mean(layer),
                        Quantile(v, 0.25), Quantile(v, 0.5),
                        Quantile(v, 0.75),
                        100.0 * Ratio(Total(layer), root_total));
        }
    }

 private:
    std::vector<std::string> order_;
    std::map<std::string, std::vector<double>> samples_;
};

/**
 * The program's own trace stages over the traced operations, for the
 * cross-check column of the report. A span nested directly in a span
 * of its own stage (kernel chunks under their batch span) is counted
 * once, through its parent.
 */
class ProgramStages {
 public:
    /** Drops what the program traced so far (call outside the root). */
    static void Reset() { trace::TraceCollector::Get().Clear(); }

    /** Folds in everything traced since Reset(). */
    void
    Collect()
    {
        trace::TraceCollector& collector = trace::TraceCollector::Get();
        const std::vector<trace::SpanRecord> spans = collector.Spans();
        lost_ += collector.TotalDropped() + collector.RetainedEvicted();
        std::unordered_map<std::uint64_t, StageKind> stage_of;
        for (const trace::SpanRecord& s : spans) {
            stage_of.emplace(s.span_id, s.stage);
        }
        for (const trace::SpanRecord& s : spans) {
            auto parent = stage_of.find(s.parent_id);
            if (parent != stage_of.end() && parent->second == s.stage) {
                continue;
            }
            const auto k = static_cast<std::size_t>(s.stage);
            ++count_[k];
            if (s.has_wall()) {
                wall_ms_[k] += s.wall_dur_us / 1e3;
            }
        }
    }

    /**
     * Prints @p stages next to the benchmark's own timing of the layer
     * they belong to, both per operation.
     */
    void
    Print(const std::vector<std::tuple<StageKind, std::string, double>>&
              rows,
          std::size_t ops) const
    {
        std::printf("\n  program stage (own trace)   spans/op  wall ms/op"
                    "   benchmark layer            ms/op\n");
        const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
        for (const auto& [stage, layer, layer_ms] : rows) {
            const auto k = static_cast<std::size_t>(stage);
            const bool wall = wall_ms_[k] > 0.0 || count_[k] == 0;
            std::printf("  %-27s %9.2f %11s   %-24s %9.4f\n",
                        trace::StageName(stage),
                        static_cast<double>(count_[k]) / n,
                        wall ? StrFormat("%.4f", wall_ms_[k] / n).c_str()
                             : "sim-only",
                        layer.c_str(), layer_ms);
        }
        std::printf("  spans lost to ring overflow or window eviction: "
                    "%llu\n",
                    static_cast<unsigned long long>(lost_));
    }

 private:
    std::array<double, trace::kNumStageKinds> wall_ms_{};
    std::array<std::uint64_t, trace::kNumStageKinds> count_{};
    std::uint64_t lost_ = 0;
};

/** Per-layer metric names, in BENCHMARK.json order. */
const std::vector<std::pair<const char*, const char*>>&
PerLayerMetrics()
{
    static const std::vector<std::pair<const char*, const char*>> kMetrics = {
        {"plan.parse_ms", "ms"},          {"plan.miss_ms", "ms"},
        {"plan.hit_us", "us"},            {"plan.cache_hit_ratio", "ratio"},
        {"exec.ms", "ms"},                {"exec.collect_ms", "ms"},
        {"exec.rest_ms", "ms"},           {"storage.scan_ms", "ms"},
        {"storage.pages_scanned", "count"},
        {"storage.pages_pruned", "count"},
        {"storage.page_reads", "count"},  {"storage.pool_hit_ratio", "ratio"},
        {"storage.pool_evictions", "count"},
        {"kernel.ms", "ms"},              {"kernel.rows_per_s", "rows/s"},
        {"kernel.early_exit_ratio", "ratio"},
        {"kernel.build_ms", "ms"},        {"serve.submit_us", "us"},
        {"serve.batch_requests", "count"},
        {"serve.overhead_ms", "ms"},      {"fleet.submit_us", "us"},
        {"fleet.overhead_ms", "ms"},      {"registry.hit_ratio", "ratio"},
        {"registry.misses", "count"},     {"registry.evictions", "count"},
        {"registry.build_ms", "ms"},      {"registry.build_share", "ratio"},
        {"trace.coverage", "ratio"},      {"trace.overhead_pct", "%"},
    };
    return kMetrics;
}

/** Emits every per-layer metric; layers a workload never enters read 0. */
void
EmitPerLayer(const std::map<std::string, double>& values, Result& result)
{
    for (const auto& [name, unit] : PerLayerMetrics()) {
        auto it = values.find(name);
        result.Metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : values) {
        const auto& known = PerLayerMetrics();
        if (std::none_of(known.begin(), known.end(),
                         [&](const auto& m) { return name == m.first; })) {
            result.Fail("unlisted per-layer metric " + name);
        }
    }
}

/** Median wall time of building the default kernel for @p model. */
double
KernelBuildMs(const RandomForest& model)
{
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
        const auto start = Clock::now();
        ForestKernel kernel(model);
        ms.push_back(MsSince(start));
    }
    return Quantile(ms, 0.5);
}

// ---------------------------------------------------------------------------
// Models and data.

/** HIGGS rows relabelled as a regression target: SCORE(m) becomes a
 * mean in [0, 1], so thresholds select by probability and early exit
 * applies (vote-combining classifiers cannot exit early). */
RandomForest
TrainScoreModel(std::size_t trees, std::size_t depth, std::size_t rows,
                std::uint64_t seed)
{
    const Dataset higgs = MakeHiggs(rows, seed);
    Dataset data("higgs_score", Task::kRegression, higgs.num_features(), 0);
    data.Assign(higgs.values(), higgs.labels());
    data.feature_names() = higgs.feature_names();
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = seed;
    return TrainForest(data, config);
}

/** @p data with rows sorted by kin_0, so zone maps on it prune. */
Dataset
ClusterByKin0(const Dataset& data)
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
    Dataset out(data.name(), data.task(), cols, data.num_classes());
    out.Assign(std::move(values), std::move(labels));
    out.feature_names() = data.feature_names();
    return out;
}

/** The classifier serve and fleet register (the paper's HIGGS model). */
struct ServedModel {
    Dataset train;
    TreeEnsemble ensemble;
    ModelStats stats;
    /** Independent copy: every reply is checked against its PredictBatch. */
    RandomForest reference;
};

ServedModel
TrainServedModel(std::uint64_t seed)
{
    ServedModel m{MakeHiggs(2000, seed), {}, {}, {}};
    ForestTrainerConfig config;
    config.num_trees = 32;
    config.max_depth = 8;
    config.seed = seed;
    const RandomForest forest = TrainForest(m.train, config);
    m.ensemble = TreeEnsemble::FromForest(forest);
    m.stats = ComputeModelStats(forest, &m.train);
    m.reference = forest;
    return m;
}

bool
SamePredictions(const std::vector<float>& got, const std::vector<float>& want)
{
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
               0;
}

// ---------------------------------------------------------------------------
// SQL sessions: sql_paged and sql_deep.

/** One statement class of a session mix. */
struct StatementClass {
    std::string name;
    /** Statements of this class in every block. */
    int per_block = 1;
    /** Statement text; @p fresh draws new literals (a plan-cache miss). */
    std::function<std::string(Rng& rng, bool fresh)> make;
};

struct SessionStatement {
    std::size_t cls = 0;
    bool fresh = false;
    std::string sql;
};

struct SqlFixture {
    std::unique_ptr<Database> db;
    std::string table;
    RandomForest model;
    std::vector<StatementClass> classes;
    /** Statements per block that carry freshly drawn literals. */
    int fresh_per_block = 0;
    Digest digest;
};

/**
 * Block @p block of the session: exactly per_block statements of every
 * class and fresh_per_block fresh ones, in a seeded order. Whole blocks
 * keep the class mix, and with it which class p50 and p90 fall in,
 * identical from run to run.
 */
std::vector<SessionStatement>
MakeBlock(const SqlFixture& f, std::uint64_t seed, std::uint64_t block)
{
    Rng rng(Mix(seed, block));
    std::vector<std::size_t> order;
    for (std::size_t c = 0; c < f.classes.size(); ++c) {
        order.insert(order.end(), f.classes[c].per_block, c);
    }
    rng.Shuffle(order);
    std::vector<char> fresh(order.size(), 0);
    std::fill_n(fresh.begin(),
                std::min<std::size_t>(f.fresh_per_block, fresh.size()), 1);
    rng.Shuffle(fresh);
    std::vector<SessionStatement> out;
    for (std::size_t i = 0; i < order.size(); ++i) {
        out.push_back({order[i], fresh[i] != 0,
                       f.classes[order[i]].make(rng, fresh[i] != 0)});
    }
    return out;
}

std::string
Literal(float v)
{
    return StrFormat("%.9g", static_cast<double>(v));
}

/**
 * sql_paged: 400k HIGGS rows clustered on kin_0 in a page file about
 * 8x the buffer pool, scored by a small model (8 trees, depth 6).
 */
SqlFixture
SetupSqlPaged(std::uint64_t seed, const std::filesystem::path& dir, int attempt)
{
    constexpr std::size_t kRows = 400000;
    const Dataset data = ClusterByKin0(MakeHiggs(kRows, seed));
    SqlFixture f;
    f.model = TrainScoreModel(8, 6, 4000, Mix(seed, 1));
    f.db = std::make_unique<Database>();
    f.db->StoreModel("m", TreeEnsemble::FromForest(f.model));
    const std::string path =
        (dir / StrFormat("higgs-%d.dbpages", attempt)).string();
    storage::StorageOptions options;
    const std::size_t data_pages =
        f.db->StoreDatasetPaged("load", data, path, options)
            .store()
            ->NumDataPages();
    f.db->DropTable("load");
    options.pool_pages = std::max<std::size_t>(4, data_pages / 8);
    f.table = "higgs";
    f.db->AttachPagedTable(f.table, path, options);

    f.digest.Add(data.values());
    f.digest.Add(TreeEnsemble::FromForest(f.model));

    // kin_0 value above which `selectivity` of the rows lie; fresh
    // statements move the cut by up to 5% of the selected rows.
    auto kin0 = std::make_shared<std::vector<float>>(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        (*kin0)[r] = data.At(r, 0);
    }
    auto cut = [kin0](double selectivity, Rng* fresh) {
        const auto selected =
            static_cast<std::int64_t>(selectivity * kRows);
        std::int64_t row = static_cast<std::int64_t>(kRows) - selected;
        if (fresh != nullptr) {
            const std::int64_t jitter = std::max<std::int64_t>(1, selected / 20);
            row += static_cast<std::int64_t>(
                       fresh->NextBelow(2 * jitter + 1)) -
                   jitter;
        }
        row = std::clamp<std::int64_t>(row, 0, kRows - 1);
        return Literal((*kin0)[static_cast<std::size_t>(row)]);
    };
    auto count = [cut](double selectivity) {
        return [cut, selectivity](Rng& rng, bool fresh) {
            return "SELECT COUNT(*) FROM higgs WHERE kin_0 > " +
                   cut(selectivity, fresh ? &rng : nullptr) +
                   " AND SCORE(m) > 0.5";
        };
    };
    f.classes = {
        {"count_1pct", 3, count(0.01)},
        {"count_10pct", 5, count(0.10)},
        {"top100_10pct", 4,
         [cut](Rng& rng, bool fresh) {
             return "SELECT TOP 100 kin_0, SCORE(m) FROM higgs WHERE kin_0 > " +
                    cut(0.10, fresh ? &rng : nullptr) +
                    " ORDER BY SCORE(m) DESC";
         }},
        {"avg_range", 4,
         [cut](Rng& rng, bool fresh) {
             return "SELECT AVG(SCORE(m)) FROM higgs WHERE kin_0 > " +
                    cut(0.30, fresh ? &rng : nullptr) + " AND kin_0 < " +
                    cut(0.20, nullptr);
         }},
        {"count_90pct", 4, count(0.90)},
    };
    f.fresh_per_block = 5;  // a quarter of each 20-statement block
    return f;
}

/**
 * sql_deep: 100k in-memory HIGGS rows scored by the paper's large model
 * (128 trees, depth 10); statement texts repeat, so plans always hit.
 */
SqlFixture
SetupSqlDeep(std::uint64_t seed)
{
    constexpr std::size_t kRows = 100000;
    const Dataset data = MakeHiggs(kRows, seed);
    SqlFixture f;
    f.model = TrainScoreModel(128, 10, 8000, Mix(seed, 1));
    f.db = std::make_unique<Database>();
    f.db->StoreModel("m", TreeEnsemble::FromForest(f.model));
    f.table = "higgs";
    f.db->StoreDataset(f.table, data);
    f.digest.Add(data.values());
    f.digest.Add(TreeEnsemble::FromForest(f.model));
    auto count = [](const char* threshold) {
        return [threshold](Rng&, bool) {
            return std::string("SELECT COUNT(*) FROM higgs WHERE SCORE(m) > ") +
                   threshold;
        };
    };
    f.classes = {
        {"count_gt_0.3", 1, count("0.3")},
        {"count_gt_0.5", 2, count("0.5")},
        {"count_gt_0.7", 1, count("0.7")},
        {"avg_fused", 3,
         [](Rng&, bool) {
             return std::string("SELECT AVG(SCORE(m)) FROM higgs");
         }},
        {"top100", 3,
         [](Rng&, bool) {
             return std::string(
                 "SELECT TOP 100 kin_0, SCORE(m) FROM higgs ORDER BY "
                 "SCORE(m) DESC");
         }},
    };
    return f;
}

bool
SameResult(const QueryResult& a, const QueryResult& b)
{
    if (a.columns != b.columns || a.rows.size() != b.rows.size()) {
        return false;
    }
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        if (a.rows[r].size() != b.rows[r].size()) {
            return false;
        }
        for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
            if (a.rows[r][c].index() != b.rows[r][c].index() ||
                CompareValues(a.rows[r][c], b.rows[r][c]) != 0) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Checks statement results against the naive planner (optimize =
 * false), whose result is computed once per text, outside any timing:
 * every canonical text, and the first fresh statement of each class.
 * Later fresh statements of a class share its shape and are checked
 * only for a non-empty result.
 */
class SqlChecker {
 public:
    explicit SqlChecker(Database& db)
        : db_(db), naive_(db, plan::PlannerOptions{false, 64})
    {
    }

    bool
    Check(const SessionStatement& s, const QueryResult& got)
    {
        auto it = expected_.find(s.sql);
        if (it != expected_.end()) {
            return SameResult(it->second, got);
        }
        if (s.fresh && !fresh_checked_.insert(s.cls).second) {
            return !got.rows.empty();
        }
        QueryResult want = naive_.PlanQuery(s.sql)->Execute(db_);
        const bool ok = SameResult(want, got);
        expected_.emplace(s.sql, std::move(want));
        return ok;
    }

 private:
    Database& db_;
    plan::Planner naive_;
    std::map<std::string, QueryResult> expected_;
    std::set<std::size_t> fresh_checked_;
};

std::optional<ThresholdOp>
ToThresholdOp(CompareOp op)
{
    switch (op) {
      case CompareOp::kGt:
        return ThresholdOp::kGt;
      case CompareOp::kGe:
        return ThresholdOp::kGe;
      case CompareOp::kLt:
        return ThresholdOp::kLt;
      case CompareOp::kLe:
        return ThresholdOp::kLe;
      default:
        return std::nullopt;
    }
}

/**
 * The kernel calls Execute makes on the survivors @p rows: the
 * early-exit threshold kernel for a pushed-down SCORE predicate,
 * otherwise the value kernel.
 */
void
RunPlanKernel(const plan::PhysicalPlan& plan, const RowView& rows)
{
    const plan::CompiledScore& cs = plan.scores().front();
    if (rows.rows() == 0 || cs.kernel == nullptr) {
        return;
    }
    bool ran = false;
    for (const plan::ScorePredicate& pred : plan.score_predicates()) {
        const std::optional<ThresholdOp> op = ToThresholdOp(pred.op);
        if (pred.early_exit && cs.threshold_kernel != nullptr && op) {
            cs.threshold_kernel->PredictThreshold(rows, *op, pred.literal);
        } else {
            cs.kernel->Predict(rows);
        }
        ran = true;
    }
    if (!ran) {
        cs.kernel->Predict(rows);
    }
}

/**
 * Re-runs the kernel autotuner before a window, outside timing.
 * ForestKernel's build-time autotuner picks tile parameters from a
 * timing race, so one process can run the same model's plan 1.5x
 * slower than the next; re-tuning per window lets a run sample the
 * tuner's choices instead of resting on one draw. Drops the tuner's
 * process-wide winners and the plan caches, then re-plans every
 * canonical statement so it hits again (fresh statements still miss).
 */
void
Retune(const SqlFixture& f, const std::vector<plan::Planner*>& planners)
{
    AutotuneCacheClear();
    Rng unused(0);
    for (plan::Planner* planner : planners) {
        planner->ClearCache();
        for (const StatementClass& c : f.classes) {
            planner->PlanQuery(c.make(unused, false));
        }
    }
}

/** Layer accounting of the traced SQL statements. */
struct SqlTrace {
    LayerTable layers;
    ProgramStages program;
    std::size_t statements = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    double miss_ms = 0.0;
    double hit_ms = 0.0;
    double kernel_rows = 0.0;
    ThresholdStats threshold;
    storage::StorageStats storage;
};

/**
 * One statement with the benchmark's spans: parse, plan and execute
 * in line (they tile the root), then the pieces of Execute re-run one
 * at a time outside the root — collect (scan + filter + gather), the
 * kernel on the survivors, and the bare storage scan.
 */
double
TracedStatement(const SqlFixture& f, plan::Planner& planner,
                const SessionStatement& s, SqlTrace& t, QueryResult& out)
{
    Database& db = *f.db;
    const Table& table = db.GetTable(f.table);
    storage::PagedTable* store = table.paged() ? table.store().get() : nullptr;
    if (store != nullptr) {
        store->ResetStats();
    }
    const std::size_t hits_before = planner.CacheStats().hits;
    ProgramStages::Reset();

    const auto t0 = Clock::now();
    Statement parsed = ParseSql(s.sql);
    const auto t1 = Clock::now();
    std::shared_ptr<const plan::PhysicalPlan> plan =
        planner.Plan(std::get<SelectStatement>(parsed), s.sql);
    const auto t2 = Clock::now();
    const ThresholdStats before = plan->threshold_stats();
    const auto t3 = Clock::now();
    out = plan->Execute(db);
    const auto t4 = Clock::now();
    const double root = MsBetween(t0, t4);

    t.program.Collect();
    ++t.statements;
    const double parse = MsBetween(t0, t1);
    const double planned = MsBetween(t1, t2);
    const double exec = MsBetween(t3, t4);
    t.layers.Add("root", root);
    t.layers.Add("plan.parse", parse);
    t.layers.Add("plan.plan", planned);
    t.layers.Add("exec", exec);
    t.layers.Add("unattributed", root - parse - planned - exec);
    if (planner.CacheStats().hits > hits_before) {
        ++t.hits;
        t.hit_ms += parse + planned;
    } else {
        ++t.misses;
        t.miss_ms += parse + planned;
    }
    const ThresholdStats after = plan->threshold_stats();
    t.threshold.tree_traversals += after.tree_traversals - before.tree_traversals;
    t.threshold.tree_traversals_full +=
        after.tree_traversals_full - before.tree_traversals_full;
    if (store != nullptr) {
        const storage::StorageStats st = store->Stats();
        t.storage.pages_scanned += st.pages_scanned;
        t.storage.pages_pruned += st.pages_pruned;
        t.storage.pager.reads += st.pager.reads;
        t.storage.pool.hits += st.pool.hits;
        t.storage.pool.misses += st.pool.misses;
        t.storage.pool.evictions += st.pool.evictions;
    }

    // Outside the root: Execute's pieces, one at a time.
    auto c0 = Clock::now();
    const plan::ScoringBatch batch = plan->CollectScoringBatch(db);
    const double collect = MsSince(c0);
    c0 = Clock::now();
    RunPlanKernel(*plan, batch.features.View());
    const double kernel = MsSince(c0);
    t.kernel_rows += static_cast<double>(batch.features.rows());
    t.layers.Add("exec.collect", collect);
    t.layers.Add("kernel", kernel);
    t.layers.Add("exec.rest", exec - collect - kernel);
    if (store != nullptr) {
        const plan::LogicalOp* scan =
            plan->logical().Find(plan::LogicalOpKind::kScan);
        c0 = Clock::now();
        storage::FeatureStream stream = store->Scan(
            scan != nullptr ? scan->zone_predicate : std::nullopt);
        storage::StreamChunk chunk;
        std::size_t rows = 0;
        while (stream.Next(chunk)) {
            rows += chunk.view.rows();
        }
        t.layers.Add("storage.scan", MsSince(c0));
    }
    return root;
}

void
RunSql(const Options& opt, const std::function<SqlFixture(int)>& setup,
       Result& result)
{
    std::vector<double> setup_s;
    SqlFixture f = TimedSetup<SqlFixture>(opt.trace ? 1 : 3, setup, setup_s);
    Database& db = *f.db;
    SqlChecker checker(db);

    Digest inputs = f.digest;
    for (std::uint64_t b = 0; b < 4; ++b) {
        for (const SessionStatement& s : MakeBlock(f, opt.seed, b)) {
            inputs.Add(s.sql);
        }
    }
    std::printf("%s: seed %llu, input digest %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                inputs.Hex().c_str());

    auto run_plain = [&](plan::Planner& planner, const SessionStatement& s) {
        const auto t0 = Clock::now();
        QueryResult r = planner.PlanQuery(s.sql)->Execute(db);
        const double ms = MsSince(t0);
        result.Op(checker.Check(s, r), s.sql);
        return ms;
    };

    if (!opt.trace) {
        plan::Planner planner(db);
        for (const SessionStatement& s : MakeBlock(f, opt.seed, 0)) {
            run_plain(planner, s);  // warm-up block, untimed
        }
        Windows windows;
        LayerTable classes;
        const auto start = Clock::now();
        for (std::uint64_t b = 1; MsSince(start) < opt.seconds * 1e3; ++b) {
            Retune(f, {&planner});
            std::vector<double> latency_ms;
            for (const SessionStatement& s : MakeBlock(f, opt.seed, b)) {
                latency_ms.push_back(run_plain(planner, s));
                classes.Add(f.classes[s.cls].name, latency_ms.back());
            }
            const double busy_ms = Sum(latency_ms);
            windows.Add(std::move(latency_ms), busy_ms);
        }
        classes.Print(opt.workload + ": statements by class", "");
        windows.Emit(false, setup_s, result);
        return;
    }

    // Traced run: each block runs twice, once plain and once traced,
    // on planners of their own (so both see the same plan-cache
    // misses), alternating which goes first; the ratio of their root
    // times is the tracing overhead.
    const double build_ms = KernelBuildMs(f.model);
    plan::Planner plain_planner(db);
    plan::Planner traced_planner(db);
    SqlTrace t;
    QueryResult r;
    for (const SessionStatement& s : MakeBlock(f, opt.seed, 0)) {
        run_plain(plain_planner, s);
        TracedStatement(f, traced_planner, s, t, r);
    }
    t = SqlTrace{};
    double plain_ms = 0.0;
    double traced_ms = 0.0;
    const auto start = Clock::now();
    for (std::uint64_t b = 1; MsSince(start) < opt.seconds * 1e3; ++b) {
        Retune(f, {&plain_planner, &traced_planner});
        const std::vector<SessionStatement> block = MakeBlock(f, opt.seed, b);
        for (int pass = 0; pass < 2; ++pass) {
            if ((pass == 0) == (b % 2 == 1)) {
                for (const SessionStatement& s : block) {
                    plain_ms += run_plain(plain_planner, s);
                }
            } else {
                for (const SessionStatement& s : block) {
                    traced_ms += TracedStatement(f, traced_planner, s, t, r);
                    result.Op(checker.Check(s, r), s.sql);
                }
            }
        }
    }

    const LayerTable& L = t.layers;
    const double n = static_cast<double>(std::max<std::size_t>(t.statements, 1));
    const double exec_ms = L.Total("exec") / n;
    const double collect_ms = L.Total("exec.collect") / n;
    const double kernel_ms = L.Total("kernel") / n;
    std::map<std::string, double> m;
    m["plan.parse_ms"] = L.Mean("plan.parse");
    m["plan.miss_ms"] = Ratio(t.miss_ms, static_cast<double>(t.misses));
    m["plan.hit_us"] = 1e3 * Ratio(t.hit_ms, static_cast<double>(t.hits));
    m["plan.cache_hit_ratio"] =
        Ratio(static_cast<double>(t.hits), static_cast<double>(t.hits + t.misses));
    m["exec.ms"] = exec_ms;
    m["exec.collect_ms"] = collect_ms;
    m["exec.rest_ms"] = exec_ms - collect_ms - kernel_ms;
    m["storage.scan_ms"] = L.Total("storage.scan") / n;
    m["storage.pages_scanned"] = static_cast<double>(t.storage.pages_scanned) / n;
    m["storage.pages_pruned"] = static_cast<double>(t.storage.pages_pruned) / n;
    m["storage.page_reads"] = static_cast<double>(t.storage.pager.reads) / n;
    m["storage.pool_hit_ratio"] = t.storage.pool.HitRatio();
    m["storage.pool_evictions"] = static_cast<double>(t.storage.pool.evictions) / n;
    m["kernel.ms"] = kernel_ms;
    m["kernel.rows_per_s"] = Ratio(t.kernel_rows, L.Total("kernel") / 1e3);
    m["kernel.early_exit_ratio"] =
        Ratio(static_cast<double>(t.threshold.tree_traversals),
              static_cast<double>(t.threshold.tree_traversals_full));
    m["kernel.build_ms"] = build_ms;
    m["trace.coverage"] =
        Ratio(L.Total("plan.parse") + L.Total("plan.plan") + L.Total("exec"),
              L.Total("root"));
    m["trace.overhead_pct"] = 100.0 * (Ratio(traced_ms, plain_ms) - 1.0);

    L.Print(opt.workload + ": traced statements", "root");
    std::printf("  trace.coverage %.4f, trace.overhead_pct %.2f%%, "
                "plan-cache hits %zu of %zu\n",
                m["trace.coverage"], m["trace.overhead_pct"], t.hits,
                t.hits + t.misses);
    t.program.Print(
        {{StageKind::kPlan, "plan.plan (misses)", Ratio(t.miss_ms, n)},
         {StageKind::kPlanCacheHit, "plan.plan (hits)", Ratio(t.hit_ms, n)},
         {StageKind::kPageRead, "storage.scan", m["storage.scan_ms"]},
         {StageKind::kBufferPool, "storage.scan", m["storage.scan_ms"]},
         {StageKind::kKernel, "kernel", kernel_ms},
         {StageKind::kKernelBuild, "plan.plan (misses)", Ratio(t.miss_ms, n)}},
        t.statements);
    EmitPerLayer(m, result);
}

// ---------------------------------------------------------------------------
// Serving bursts: serve_stream and fleet_rewarm.

/** Timestamps of one burst, in ms from the round's start. */
struct Burst {
    std::vector<double> submit_ms;
    std::vector<double> ready_ms;
    std::vector<double> in_submit_us;
    /** Main thread: end of the submit loop. */
    double burst_end_ms = 0.0;

    double Wall() const { return ready_ms.back() - submit_ms.front(); }
};

/**
 * Submits @p n requests back to back from this thread while a waiter
 * thread waits for the replies in submission order and stamps when
 * each is ready (so a reply is stamped no earlier than every reply
 * submitted before it).
 */
template <typename Handle>
Burst
RunBurst(std::size_t n, const std::function<Handle(std::size_t)>& submit,
         const std::function<void(Handle&)>& wait, std::vector<Handle>& handles)
{
    handles.clear();
    handles.resize(n);
    Burst b;
    b.submit_ms.resize(n);
    b.ready_ms.resize(n);
    b.in_submit_us.resize(n);
    std::atomic<std::size_t> published{0};
    std::atomic<bool> abandon{false};
    const auto start = Clock::now();
    std::thread waiter([&] {
        for (std::size_t i = 0; i < n; ++i) {
            while (published.load(std::memory_order_acquire) <= i) {
                if (abandon.load()) {
                    return;
                }
                std::this_thread::yield();
            }
            wait(handles[i]);
            b.ready_ms[i] = MsSince(start);
        }
    });
    try {
        for (std::size_t i = 0; i < n; ++i) {
            const auto t0 = Clock::now();
            handles[i] = submit(i);
            const auto t1 = Clock::now();
            b.submit_ms[i] = MsBetween(start, t0);
            b.in_submit_us[i] = MsBetween(t0, t1) * 1e3;
            published.store(i + 1, std::memory_order_release);
        }
    } catch (...) {
        abandon.store(true);
        waiter.join();
        throw;
    }
    b.burst_end_ms = MsSince(start);
    waiter.join();
    return b;
}

/** Trace shared by serve_stream and fleet_rewarm rounds. */
struct ServeTrace {
    LayerTable layers;
    ProgramStages program;
    std::size_t requests = 0;
    double kernel_ms = 0.0;
    double kernel_rows = 0.0;
    double batch_requests = 0.0;
    double plain_ms = 0.0;
    double traced_ms = 0.0;
};

/** Root, submit, wait and unattributed rows of one traced burst. */
void
AddBurstLayers(const Burst& b, const std::string& prefix, double kernel_ms,
               ServeTrace& t)
{
    const double n = static_cast<double>(b.submit_ms.size());
    const double wall = b.Wall();
    const double submit_ms = Sum(b.in_submit_us) / 1e3;
    const double wait_ms = b.ready_ms.back() - b.burst_end_ms;
    t.layers.Add("root", wall / n);
    t.layers.Add(prefix + ".submit", submit_ms / n);
    t.layers.Add("caller.wait", wait_ms / n);
    t.layers.Add("unattributed", (wall - submit_ms - wait_ms) / n);
    t.layers.Add("kernel", kernel_ms / n);
    t.layers.Add(prefix + ".overhead", (wall - kernel_ms) / n);
    t.requests += b.submit_ms.size();
    t.kernel_ms += kernel_ms;
}

double
BurstCoverage(const LayerTable& layers, const std::string& prefix)
{
    return Ratio(layers.Total(prefix + ".submit") + layers.Total("caller.wait"),
                 layers.Total("root"));
}

/** Adds one untraced burst: per-request submit-to-reply latencies. */
void
AddBurst(const Burst& b, Windows& windows)
{
    std::vector<double> latency_ms(b.ready_ms.size());
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
        latency_ms[i] = b.ready_ms[i] - b.submit_ms[i];
    }
    windows.Add(std::move(latency_ms), b.Wall());
}

/** Row ranges of one round's requests into the payload pool. */
struct PayloadSpec {
    std::size_t offset = 0;
    std::size_t rows = 0;
};

/**
 * Round @p round's payloads: 64 rows each when @p fixed_64, otherwise
 * 16, 32, ..., 512 rows in equal shares (so every round carries the
 * same rows in total), shuffled, at seeded offsets into the pool.
 */
std::vector<PayloadSpec>
MakePayloads(std::uint64_t seed, std::uint64_t round, std::size_t n,
             std::size_t pool_rows, bool fixed_64)
{
    Rng rng(Mix(seed, 1000 + round));
    std::vector<PayloadSpec> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].rows = fixed_64 ? 64 : std::size_t{16} << (i % 6);
    }
    rng.Shuffle(out);
    for (PayloadSpec& p : out) {
        p.offset = rng.NextBelow(pool_rows - p.rows + 1);
    }
    return out;
}

constexpr std::size_t kPoolRows = 1 << 16;

/** Payload rows both serving workloads draw their requests from. */
RowBlock
MakePayloadPool(std::uint64_t seed, Digest& digest)
{
    const Dataset rows = MakeHiggs(kPoolRows, Mix(seed, 2));
    digest.Add(rows.values());
    return RowBlock::Copy(rows.values().data(), rows.num_rows(),
                          rows.num_features());
}

/**
 * serve_stream: ScoringService with one 32-tree depth-8 HIGGS model;
 * each round submits kServeRequests requests of 16..512 rows as zero-
 * copy views, at a fixed modeled spacing, then drains.
 */
constexpr std::size_t kServeRequests = 2048;

struct ServeFixture {
    ServedModel model;
    RowBlock pool;
    std::unique_ptr<serve::ScoringService> service;
    Digest digest;
};

/** A started service with the model registered (its kernel compiled). */
std::unique_ptr<serve::ScoringService>
StartService(const ServedModel& model)
{
    serve::ServiceConfig config;
    config.admission_capacity = 2 * kServeRequests;
    auto service = std::make_unique<serve::ScoringService>(
        HardwareProfile::Paper(), config);
    service->RegisterModel("m", model.ensemble, model.stats);
    service->Start();
    return service;
}

ServeFixture
SetupServe(std::uint64_t seed)
{
    ServeFixture f{TrainServedModel(Mix(seed, 1)), {}, nullptr, {}};
    f.digest.Add(f.model.ensemble);
    f.pool = MakePayloadPool(seed, f.digest);
    f.service = StartService(f.model);
    return f;
}

/**
 * Like Retune for SQL: the measuring time is split into this many
 * stretches, each on a fresh service started outside timing, whose
 * model registration re-runs the kernel autotuner. A fixed count (not
 * one per round) keeps peak memory, which grows with every set of
 * service threads, independent of how many rounds fit in a run.
 */
constexpr int kServiceStretches = 8;

void
RestartService(ServeFixture& f)
{
    f.service.reset();
    AutotuneCacheClear();
    f.service = StartService(f.model);
}

/** True while stretch @p stretch of the measuring time is still open. */
bool
InStretch(Clock::time_point start, const Options& opt, int stretch)
{
    return MsSince(start) <
           opt.seconds * 1e3 * (stretch + 1) / kServiceStretches;
}

void
RunServe(const Options& opt, Result& result)
{
    std::vector<double> setup_s;
    ServeFixture f = TimedSetup<ServeFixture>(
        opt.trace ? 1 : 5, [&](int) { return SetupServe(opt.seed); },
        setup_s);
    Digest inputs = f.digest;
    for (const PayloadSpec& p :
         MakePayloads(opt.seed, 0, kServeRequests, kPoolRows, false)) {
        inputs.Add(&p, sizeof(p));
    }
    std::printf("%s: seed %llu, input digest %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                inputs.Hex().c_str());

    std::uint64_t arrivals = 0;
    // One round: build the requests, burst them, drain, check every
    // reply bit for bit against RandomForest::PredictBatch.
    auto round = [&](std::uint64_t index, std::vector<serve::PendingScorePtr>& handles) {
        const std::vector<PayloadSpec> specs =
            MakePayloads(opt.seed, index, kServeRequests, kPoolRows, false);
        std::vector<serve::ScoreRequest> requests(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            requests[i].model_id = "m";
            requests[i].num_rows = specs[i].rows;
            requests[i].rows =
                f.pool.View(specs[i].offset, specs[i].offset + specs[i].rows);
            requests[i].arrival =
                SimTime::Millis(0.5 * static_cast<double>(arrivals++));
        }
        Burst b = RunBurst<serve::PendingScorePtr>(
            requests.size(),
            [&](std::size_t i) {
                return f.service->Submit(std::move(requests[i]));
            },
            [](serve::PendingScorePtr& h) { h->Wait(); }, handles);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const serve::ScoreReply& reply = handles[i]->Wait();
            const RowView rows =
                f.pool.View(specs[i].offset, specs[i].offset + specs[i].rows);
            result.Op(reply.status == serve::RequestStatus::kCompleted &&
                          SamePredictions(reply.predictions,
                                          f.model.reference.PredictBatch(rows)),
                      StrFormat("serve request %zu of round %llu (%s)", i,
                                static_cast<unsigned long long>(index),
                                serve::RequestStatusName(reply.status)));
        }
        return std::make_pair(b, specs);
    };

    std::vector<serve::PendingScorePtr> handles;
    round(0, handles);  // warm-up, untimed
    if (!opt.trace) {
        Windows windows;
        const auto start = Clock::now();
        std::uint64_t r = 1;
        for (int stretch = 0; stretch < kServiceStretches; ++stretch) {
            RestartService(f);
            do {
                AddBurst(round(r++, handles).first, windows);
            } while (InStretch(start, opt, stretch));
        }
        windows.Emit(true, setup_s, result);
        return;
    }

    const double build_ms = KernelBuildMs(f.model.reference);
    ServeTrace t;
    const auto start = Clock::now();
    // Pairs of rounds on the same requests, one plain and one traced,
    // alternating which goes first; the kernel-only pass re-runs each
    // traced round's payloads on @p kernel.
    auto pair = [&](std::uint64_t r, const ForestKernel& kernel) {
        for (int pass = 0; pass < 2; ++pass) {
            if ((pass == 0) != (r % 2 == 0)) {
                t.plain_ms += round(r, handles).first.Wall();
                continue;
            }
            ProgramStages::Reset();
            auto [b, specs] = round(r, handles);
            t.program.Collect();
            t.traced_ms += b.Wall();
            double kernel_ms = 0.0;
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const RowView rows = f.pool.View(
                    specs[i].offset, specs[i].offset + specs[i].rows);
                const auto k0 = Clock::now();
                kernel.Predict(rows);
                kernel_ms += MsSince(k0);
                t.kernel_rows += static_cast<double>(specs[i].rows);
                t.batch_requests +=
                    static_cast<double>(handles[i]->Wait().batch_requests);
            }
            AddBurstLayers(b, "serve", kernel_ms, t);
        }
    };
    std::uint64_t r = 1;
    for (int stretch = 0; stretch < kServiceStretches; ++stretch) {
        RestartService(f);
        // Built after the restart, so it runs the service's tuned plan.
        const ForestKernel kernel(f.model.reference);
        do {
            pair(r++, kernel);
        } while (InStretch(start, opt, stretch));
    }

    const LayerTable& L = t.layers;
    const double n = static_cast<double>(std::max<std::size_t>(t.requests, 1));
    std::map<std::string, double> m;
    m["kernel.ms"] = L.Mean("kernel");
    m["kernel.rows_per_s"] = Ratio(t.kernel_rows, t.kernel_ms / 1e3);
    m["kernel.build_ms"] = build_ms;
    m["serve.submit_us"] = 1e3 * L.Mean("serve.submit");
    m["serve.batch_requests"] = t.batch_requests / n;
    m["serve.overhead_ms"] = L.Mean("serve.overhead");
    m["trace.coverage"] = BurstCoverage(L, "serve");
    m["trace.overhead_pct"] = 100.0 * (Ratio(t.traced_ms, t.plain_ms) - 1.0);
    L.Print(opt.workload + ": traced bursts", "root");
    std::printf("  trace.coverage %.4f, trace.overhead_pct %.2f%%\n",
                m["trace.coverage"], m["trace.overhead_pct"]);
    t.program.Print({{StageKind::kKernel, "kernel", m["kernel.ms"]},
                     {StageKind::kQueueWait, "caller.wait", L.Mean("caller.wait")},
                     {StageKind::kBatch, "root", L.Mean("root")}},
                    t.requests);
    EmitPerLayer(m, result);
}

/**
 * fleet_rewarm: FleetService with 32 model ids under a registry budget
 * of about 6 models; tenants bound to models by Zipf(0.8) popularity,
 * 10/30/60 gold/silver/bronze; 64-row payloads; no quotas, no faults,
 * deadlines far beyond the run, so nothing expires.
 */
constexpr std::size_t kFleetModels = 32;
constexpr std::size_t kFleetTenants = 1024;
constexpr std::size_t kFleetRequests = 256;

struct FleetFixture {
    ServedModel model;
    RowBlock pool;
    std::unique_ptr<fleet::FleetService> service;
    Digest digest;
};

/**
 * Model of each tenant: model k serves a Zipf(@p theta) share of the
 * tenants (rank 0 the hottest), rounded so the shares are exact, and
 * the seed decides which tenants they are.
 */
std::vector<std::size_t>
ZipfBinding(Rng& rng, std::size_t models, std::size_t tenants, double theta)
{
    std::vector<double> weight(models);
    for (std::size_t k = 0; k < models; ++k) {
        weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), theta);
    }
    const double total = Sum(weight);
    std::vector<std::size_t> binding;
    double cumulative = 0.0;
    for (std::size_t k = 0; k < models; ++k) {
        cumulative += weight[k];
        const auto end = static_cast<std::size_t>(
            std::llround(cumulative / total * static_cast<double>(tenants)));
        binding.resize(std::max(binding.size(), end), k);
    }
    rng.Shuffle(binding);
    return binding;
}

FleetFixture
SetupFleet(std::uint64_t seed)
{
    FleetFixture f{TrainServedModel(Mix(seed, 1)), {}, nullptr, {}};
    f.digest.Add(f.model.ensemble);
    f.pool = MakePayloadPool(seed, f.digest);
    fleet::FleetConfig config;
    config.registry.memory_budget_bytes =
        f.model.stats.serialized_bytes * 6 + f.model.stats.serialized_bytes / 2;
    config.queue_capacity = 2 * kFleetRequests;
    for (int c = 0; c < fleet::kNumSloClasses; ++c) {
        fleet::SloPolicy policy =
            fleet::DefaultSloPolicy(static_cast<fleet::SloClass>(c));
        policy.deadline = SimTime::Seconds(1e9);
        policy.quota_rps = 0.0;
        config.slo[c] = policy;
    }
    f.service = std::make_unique<fleet::FleetService>(HardwareProfile::Paper(),
                                                      config);
    for (std::size_t m = 0; m < kFleetModels; ++m) {
        f.service->RegisterModel(StrFormat("m%zu", m), f.model.ensemble,
                                 f.model.stats);
    }
    Rng popularity(Mix(seed, 3));
    const std::vector<std::size_t> binding =
        ZipfBinding(popularity, kFleetModels, kFleetTenants, 0.8);
    for (std::size_t tenant = 0; tenant < kFleetTenants; ++tenant) {
        const std::size_t model = binding[tenant];
        const std::size_t slot = tenant % 10;
        const fleet::SloClass cls = slot == 0  ? fleet::SloClass::kGold
                                    : slot < 4 ? fleet::SloClass::kSilver
                                               : fleet::SloClass::kBronze;
        f.service->RegisterTenant(tenant, StrFormat("m%zu", model), cls);
        f.digest.Add(&model, sizeof(model));
    }
    f.service->Start();
    return f;
}

/** Median wall time of one cold Acquire on a standalone registry. */
double
RegistryBuildMs(const ServedModel& model)
{
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
        fleet::ModelRegistry registry(HardwareProfile::Paper(),
                                      fleet::RegistryConfig{});
        registry.RegisterModel("m", model.ensemble, model.stats);
        const auto start = Clock::now();
        registry.Acquire("m", trace::SpanContext{}, SimTime());
        ms.push_back(MsSince(start));
    }
    return Quantile(ms, 0.5);
}

void
RunFleet(const Options& opt, Result& result)
{
    std::vector<double> setup_s;
    FleetFixture f = TimedSetup<FleetFixture>(
        opt.trace ? 1 : 5, [&](int) { return SetupFleet(opt.seed); }, setup_s);
    const std::size_t cols = f.pool.cols();

    // Round r's tenants: kFleetRequests distinct ones, drawn uniformly,
    // so each round's model mix stays close to the Zipf shares.
    auto tenants = [&](std::uint64_t r) {
        Rng rng(Mix(opt.seed, 2000 + r));
        std::vector<std::uint64_t> out(kFleetTenants);
        std::iota(out.begin(), out.end(), std::uint64_t{0});
        rng.Shuffle(out);
        out.resize(kFleetRequests);
        return out;
    };
    Digest inputs = f.digest;
    for (std::uint64_t t : tenants(0)) {
        inputs.Add(&t, sizeof(t));
    }
    for (const PayloadSpec& p :
         MakePayloads(opt.seed, 0, kFleetRequests, kPoolRows, true)) {
        inputs.Add(&p, sizeof(p));
    }
    std::printf("%s: seed %llu, input digest %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                inputs.Hex().c_str());

    std::uint64_t arrivals = 0;
    auto round = [&](std::uint64_t index,
                     std::vector<std::future<fleet::FleetReply>>& handles) {
        const std::vector<PayloadSpec> specs =
            MakePayloads(opt.seed, index, kFleetRequests, kPoolRows, true);
        const std::vector<std::uint64_t> who = tenants(index);
        std::vector<fleet::FleetRequest> requests(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const float* rows =
                f.pool.View(specs[i].offset, specs[i].offset + specs[i].rows)
                    .Row(0);
            requests[i].tenant_id = who[i];
            requests[i].num_rows = specs[i].rows;
            requests[i].rows.assign(rows, rows + specs[i].rows * cols);
            requests[i].arrival =
                SimTime::Millis(static_cast<double>(arrivals++));
        }
        Burst b = RunBurst<std::future<fleet::FleetReply>>(
            requests.size(),
            [&](std::size_t i) { return f.service->Submit(std::move(requests[i])); },
            [](std::future<fleet::FleetReply>& h) { h.wait(); }, handles);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const fleet::FleetReply reply = handles[i].get();
            const RowView rows =
                f.pool.View(specs[i].offset, specs[i].offset + specs[i].rows);
            result.Op(reply.status == serve::RequestStatus::kCompleted &&
                          SamePredictions(reply.predictions,
                                          f.model.reference.PredictBatch(rows)),
                      StrFormat("fleet request %zu of round %llu (%s)", i,
                                static_cast<unsigned long long>(index),
                                serve::RequestStatusName(reply.status)));
        }
        return std::make_pair(b, specs);
    };

    std::vector<std::future<fleet::FleetReply>> handles;
    round(0, handles);  // warm-up, untimed
    if (!opt.trace) {
        Windows windows;
        const auto start = Clock::now();
        for (std::uint64_t r = 1; MsSince(start) < opt.seconds * 1e3; ++r) {
            AddBurst(round(r, handles).first, windows);
        }
        windows.Emit(true, setup_s, result);
        return;
    }

    const double build_ms = KernelBuildMs(f.model.reference);
    const double registry_build_ms = RegistryBuildMs(f.model);
    const std::shared_ptr<const ForestKernel> kernel = f.model.reference.Kernel();
    ServeTrace t;
    fleet::RegistrySnapshot registry;
    std::size_t rounds = 0;
    const auto start = Clock::now();
    for (std::uint64_t r = 1; MsSince(start) < opt.seconds * 1e3; ++r) {
        for (int pass = 0; pass < 2; ++pass) {
            const bool traced = (pass == 0) == (r % 2 == 0);
            if (!traced) {
                t.plain_ms += round(r, handles).first.Wall();
                continue;
            }
            ProgramStages::Reset();
            const fleet::RegistrySnapshot before = f.service->registry().Snapshot();
            auto [b, specs] = round(r, handles);
            const fleet::RegistrySnapshot after = f.service->registry().Snapshot();
            t.program.Collect();
            t.traced_ms += b.Wall();
            registry.hits += after.hits - before.hits;
            registry.misses += after.misses - before.misses;
            registry.evictions += after.evictions - before.evictions;
            ++rounds;
            double kernel_ms = 0.0;
            for (const PayloadSpec& p : specs) {
                const RowView rows = f.pool.View(p.offset, p.offset + p.rows);
                const auto k0 = Clock::now();
                kernel->Predict(rows);
                kernel_ms += MsSince(k0);
                t.kernel_rows += static_cast<double>(p.rows);
            }
            AddBurstLayers(b, "fleet", kernel_ms, t);
        }
    }

    const LayerTable& L = t.layers;
    const double per_round = static_cast<double>(std::max<std::size_t>(rounds, 1));
    std::map<std::string, double> m;
    m["kernel.ms"] = L.Mean("kernel");
    m["kernel.rows_per_s"] = Ratio(t.kernel_rows, t.kernel_ms / 1e3);
    m["kernel.build_ms"] = build_ms;
    m["fleet.submit_us"] = 1e3 * L.Mean("fleet.submit");
    m["fleet.overhead_ms"] = L.Mean("fleet.overhead");
    m["registry.hit_ratio"] = registry.HitRate();
    m["registry.misses"] = static_cast<double>(registry.misses) / per_round;
    m["registry.evictions"] = static_cast<double>(registry.evictions) / per_round;
    m["registry.build_ms"] = registry_build_ms;
    m["registry.build_share"] =
        Ratio(static_cast<double>(registry.misses) * registry_build_ms,
              t.traced_ms);
    m["trace.coverage"] = BurstCoverage(L, "fleet");
    m["trace.overhead_pct"] = 100.0 * (Ratio(t.traced_ms, t.plain_ms) - 1.0);
    L.Print(opt.workload + ": traced bursts", "root");
    std::printf("  trace.coverage %.4f, trace.overhead_pct %.2f%%, registry "
                "misses/round %.1f, est. rebuild share %.3f\n",
                m["trace.coverage"], m["trace.overhead_pct"],
                m["registry.misses"], m["registry.build_share"]);
    t.program.Print(
        {{StageKind::kKernel, "kernel", m["kernel.ms"]},
         {StageKind::kKernelBuild, "registry.build x misses/req",
          registry_build_ms * Ratio(static_cast<double>(registry.misses),
                                    static_cast<double>(t.requests))},
         {StageKind::kRegistryHit, "-", 0.0},
         {StageKind::kQueueWait, "caller.wait", L.Mean("caller.wait")}},
        t.requests);
    EmitPerLayer(m, result);
}

// ---------------------------------------------------------------------------

bool
ParseArgs(int argc, char** argv, Options& opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::stoull(value);
        } else if (key == "--seconds") {
            opt.seconds = std::stod(value);
        } else if (key == "--trace") {
            opt.trace = value == "1";
        } else if (key == "--tmp-dir") {
            opt.tmp_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.workload.empty() && !opt.tmp_dir.empty() &&
           opt.seconds > 0.0;
}

int
Main(int argc, char** argv)
{
    Options opt;
    if (!ParseArgs(argc, argv, opt)) {
        std::cerr << "usage: e2e_bench --workload sql_paged|sql_deep|"
                     "serve_stream|fleet_rewarm --seed N --seconds S "
                     "--trace 0|1 --tmp-dir DIR\n";
        return 2;
    }
    if (opt.trace) {
        // Room for every span one traced operation emits (a 90% scan
        // of sql_paged emits about 30k), before any thread has a ring.
        trace::TraceCollector::Get().SetRingCapacity(std::size_t{1} << 16);
        trace::TraceCollector::Get().SetRetainedCapacity(std::size_t{1} << 17);
    }
    ScratchDir scratch(opt.tmp_dir);
    Result result;
    if (opt.workload == "sql_paged") {
        RunSql(opt,
               [&](int attempt) {
                   return SetupSqlPaged(opt.seed, scratch.path(), attempt);
               },
               result);
    } else if (opt.workload == "sql_deep") {
        RunSql(opt, [&](int) { return SetupSqlDeep(opt.seed); }, result);
    } else if (opt.workload == "serve_stream") {
        RunServe(opt, result);
    } else if (opt.workload == "fleet_rewarm") {
        RunFleet(opt, result);
    } else {
        std::cerr << "unknown workload " << opt.workload << "\n";
        return 2;
    }
    std::cout << result.Json() << std::endl;
    return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dbscore::perfbench

int
main(int argc, char** argv)
{
    try {
        return dbscore::perfbench::Main(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "e2e_bench: " << e.what() << "\n";
        return 1;
    }
}

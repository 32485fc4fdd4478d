/**
 * @file
 * Shared helpers for the benches: dataset/model construction matching
 * the paper's configurations, the record-count sweep grid and
 * best-backend queries that the reproduction program (repro) reads, and
 * the plumbing (flag parsing, timing, and the BENCH_*.json document
 * format) that every wallclock_* bench shares.
 */
#ifndef DBSCORE_BENCH_BENCH_UTIL_H
#define DBSCORE_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dbscore/core/scheduler.h"
#include "dbscore/data/dataset.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/onnx_like.h"

namespace dbscore::bench {

/** The paper's two evaluation datasets. */
enum class DatasetKind { kIris, kHiggs };

const char* DatasetName(DatasetKind kind);

/** Feature count of a dataset kind (IRIS 4, HIGGS 28). */
std::size_t DatasetFeatures(DatasetKind kind);

/** Training sample used to fit bench models (cached per kind). */
const Dataset& TrainingData(DatasetKind kind);

/** A trained model plus everything the engines need. */
struct BenchModel {
    DatasetKind dataset;
    std::size_t trees;
    std::size_t depth;
    RandomForest forest;
    TreeEnsemble ensemble;
    ModelStats stats;
};

/**
 * Trains (and caches) a random forest with the paper's configuration:
 * @p trees trees capped at @p depth levels on the given dataset.
 */
const BenchModel& GetModel(DatasetKind kind, std::size_t trees,
                           std::size_t depth);

/** Builds a scheduler with every viable backend for @p model. */
OffloadScheduler MakeScheduler(const BenchModel& model);

/** The record-count sweep the paper's Figures 9/10 use (1 .. 1M). */
const std::vector<std::size_t>& RecordSweep();

/** Best (lowest-latency) CPU-class estimate at @p num_rows. */
SimTime BestCpuTime(const OffloadScheduler& sched, std::size_t num_rows);

/** Best accelerator-class (GPU or FPGA) estimate at @p num_rows. */
SimTime BestAcceleratorTime(const OffloadScheduler& sched,
                            std::size_t num_rows);

/**
 * Smallest record count in a fine sweep where an accelerator beats the
 * best CPU engine (the paper's "crossover point"); 0 if none.
 */
std::size_t FindCpuCrossover(const OffloadScheduler& sched);

/**
 * Writes one latency series as CSV: a records column plus one
 * seconds-valued column per backend series.
 */
void DumpSeriesCsv(const std::string& path,
                   const std::vector<std::size_t>& record_counts,
                   const std::vector<std::string>& series_names,
                   const std::vector<std::vector<SimTime>>& series);

// ---------------------------------------------------------------------------
// Shared wallclock-bench plumbing (--smoke/--out=/--filter= flags and
// the BENCH_*.json document shape), deduplicated from the wallclock_*
// mains.

/** Parsed common wallclock-bench flags. */
struct BenchArgs {
    bool smoke = false;
    std::string out_path;
    std::string filter;
    /** False when an unknown flag was seen (usage already printed). */
    bool ok = true;
};

/**
 * Parses --smoke, --out=PATH, and (when @p accepts_filter)
 * --filter=STR. On an unknown flag prints a usage line for
 * @p bench_name to stderr and returns ok=false — the caller should
 * exit 2.
 */
BenchArgs ParseBenchArgs(int argc, char** argv,
                         const std::string& bench_name,
                         const std::string& default_out,
                         bool accepts_filter = false);

/** Wall-clock seconds elapsed since @p start. */
double SecondsSince(std::chrono::steady_clock::time_point start);

/** Best-of-@p repeats wall time of @p fn, in seconds. */
template <typename Fn>
double
BestOfWall(int repeats, const Fn& fn)
{
    double best = 1e30;
    for (int i = 0; i < repeats; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, SecondsSince(start));
    }
    return best;
}

/**
 * Deterministic Zipfian sampler over keys [0, n), YCSB-style: the
 * harmonic normalizer is precomputed once so Next() is O(1) with two
 * uniform draws (Gray et al.'s quick-Zipf rejection-free transform).
 * Same (n, theta, seed) always yields the same key sequence on every
 * platform — the fleet bench's tenant->model popularity must replay
 * identically in CI.
 */
class ZipfianGenerator {
 public:
    /**
     * @param n      key-space size (> 0)
     * @param theta  skew in [0, 1); 0 = uniform, 0.99 = YCSB-hot
     * @param seed   PRNG seed (splitmix64-initialized xorshift)
     */
    ZipfianGenerator(std::size_t n, double theta, std::uint64_t seed);

    /** Next key in [0, n); rank 0 is the most popular key. */
    std::size_t Next();

    std::size_t n() const { return n_; }
    double theta() const { return theta_; }

 private:
    double NextUniform();

    std::size_t n_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;
    std::uint64_t state_;
};

/** One JSON object with insertion-ordered scalar fields. */
class BenchJsonObject {
 public:
    BenchJsonObject& Str(const std::string& key, const std::string& v);
    BenchJsonObject& Num(const std::string& key, double v);
    BenchJsonObject& Int(const std::string& key, std::uint64_t v);
    BenchJsonObject& Bool(const std::string& key, bool v);

    /** Renders as {...} (no trailing newline). */
    std::string Render() const;

 private:
    /** key -> already-rendered JSON value. */
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * The BENCH_*.json document every wallclock bench emits:
 * {"bench": ..., "schema_version": 1, "smoke": ..., <header fields>,
 *  "results": [...]}. Build header fields via header(), one result
 * object per AddResult(), then Write().
 */
class BenchJsonWriter {
 public:
    BenchJsonWriter(std::string bench, bool smoke);

    /** Overrides the emitted schema_version (default 1). Bump when a
     * bench changes its result keys so downstream consumers (the CI
     * schema validator) fail loudly instead of misreading. */
    void SetSchemaVersion(int version) { schema_version_ = version; }

    /** Extra top-level scalars (after the three standard ones). */
    BenchJsonObject& header() { return header_; }

    /** Appends and returns a fresh result object. */
    BenchJsonObject& AddResult();

    /** Writes the document; throws IoError when the file won't open. */
    void Write(const std::string& path) const;

 private:
    std::string bench_;
    bool smoke_;
    int schema_version_ = 1;
    BenchJsonObject header_;
    std::vector<BenchJsonObject> results_;
};

}  // namespace dbscore::bench

#endif  // DBSCORE_BENCH_BENCH_UTIL_H

/**
 * @file
 * Wall-clock rows/sec of the compiled ForestKernel vs the scalar
 * reference batch path, on whole batches and on 36-row calls.
 *
 * Unlike every other bench in this directory, the numbers here are
 * REAL wall-clock measurements, not simulated SimTime: they quantify
 * the functional engines' actual CPU speed and therefore vary by
 * machine. Sweeps IRIS/HIGGS x {1,8,32,128} trees x depths {6,10} and,
 * per shape, measures three paths over the same evaluation buffer:
 * the scalar reference, the kernel on the whole batch (Predict, chunked
 * over the thread pool), and the kernel called on consecutive 36-row
 * slices (Run on one thread), which is the page size of perfbench's
 * sql_paged workload and so exercises the row-count rule's scalar
 * side. Kernel outputs must be bit-identical to the reference on both.
 *
 * Two guards gate the exit code (and therefore CI):
 *  - trace guard: the always-on kernel spans must cost < 3% throughput
 *    (median over 11 interleaved pairs of alternating calls);
 *  - row-count rule guard: on the HIGGS 128-tree depth-10 shape, 64-row
 *    calls (one 8x8 vector group each) must reach >= 0.90x the rows/s
 *    of 48-row calls (three 16-lane scalar groups each). Enforced only
 *    when a vector backend runs (runs in smoke mode too).
 *
 * Emits BENCH_kernels.json (schema_version 3) so future PRs can track
 * the wall-clock trajectory.
 *
 * Flags:
 *   --smoke       small training/evaluation sizes for CI smoke runs
 *   --out=PATH    JSON output path (default BENCH_kernels.json)
 *   --filter=STR  only run configs whose DATASET:trees:depth label
 *                 contains STR (e.g. --filter=HIGGS:128)
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

namespace dbscore::bench {
namespace {

/** sql_paged's rows per page: the call size of the short-call column. */
constexpr std::size_t kPageRows = 36;

struct Config {
    const char* dataset;
    std::size_t trees;
    std::size_t depth;
};

struct Result {
    Config config;
    std::size_t rows = 0;
    double kernel_build_ms = 0.0;
    double scalar_rows_per_sec = 0.0;
    double kernel_rows_per_sec = 0.0;
    double call36_rows_per_sec = 0.0;
    /** Whole-batch and 36-row-call outputs == scalar reference. */
    bool bit_identical = false;

    /** Headline speedup: whole-batch kernel over the scalar reference. */
    double Speedup() const
    {
        return kernel_rows_per_sec / scalar_rows_per_sec;
    }
};

bool
SameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

RandomForest
TrainShape(const Config& config, std::size_t train_rows)
{
    const bool iris = std::strcmp(config.dataset, "IRIS") == 0;
    // IRIS stays at the paper's replicated 150-sample training set so
    // its trees come out small and shallow (see bench_util).
    const Dataset train =
        iris ? MakeIris(150, 42) : MakeHiggs(train_rows, 42);
    ForestTrainerConfig trainer;
    trainer.num_trees = config.trees;
    trainer.max_depth = config.depth;
    trainer.seed = 42;
    return TrainForest(train, trainer);
}

/**
 * Scores the first @p num_rows rows in consecutive @p call-row Run
 * calls on this thread, one reused scratch, into @p out.
 */
void
RunInCalls(const ForestKernel& kernel, const float* rows,
           std::size_t num_rows, std::size_t cols, std::size_t call,
           ForestKernel::Scratch& scratch, std::vector<float>& out)
{
    out.resize(num_rows);
    for (std::size_t begin = 0; begin < num_rows; begin += call) {
        const std::size_t n = std::min(call, num_rows - begin);
        kernel.Run(rows + begin * cols, n, cols, out.data() + begin,
                   scratch);
    }
}

Result
RunConfig(const Config& config, std::size_t train_rows,
          std::size_t eval_rows, int repeats)
{
    const bool iris = std::strcmp(config.dataset, "IRIS") == 0;
    const Dataset eval =
        iris ? MakeIris(eval_rows, 7) : MakeHiggs(eval_rows, 7);
    const RandomForest forest = TrainShape(config, train_rows);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();

    Result r;
    r.config = config;
    r.rows = eval_rows;

    // The build timing is the compile a serving layer re-pays when a
    // cached kernel is evicted (also attributed to kKernelBuild).
    auto build_start = std::chrono::steady_clock::now();
    auto kernel = forest.Kernel();
    r.kernel_build_ms = SecondsSince(build_start) * 1e3;

    std::vector<float> scalar_out;
    std::vector<float> batch_out;
    std::vector<float> call_out;
    ForestKernel::Scratch scratch;
    const double scalar_s = BestOfWall(1, [&] {
        scalar_out = forest.PredictBatchScalar(rows, eval_rows, cols);
    });
    // Interleave the two kernel paths inside each repeat instead of
    // timing them in separate sequential blocks: shared-VM throughput
    // drifts on a seconds scale, and alternation exposes both paths to
    // the same drift.
    double batch_s = 0.0;
    double call_s = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        const double a = BestOfWall(1, [&] {
            batch_out = kernel->Predict(rows, eval_rows, cols);
        });
        const double b = BestOfWall(1, [&] {
            RunInCalls(*kernel, rows, eval_rows, cols, kPageRows, scratch,
                       call_out);
        });
        batch_s = rep == 0 ? a : std::min(batch_s, a);
        call_s = rep == 0 ? b : std::min(call_s, b);
    }

    const auto rps = [eval_rows](double s) {
        return static_cast<double>(eval_rows) / s;
    };
    r.scalar_rows_per_sec = rps(scalar_s);
    r.kernel_rows_per_sec = rps(batch_s);
    r.call36_rows_per_sec = rps(call_s);
    r.bit_identical =
        SameBits(scalar_out, batch_out) && SameBits(scalar_out, call_out);
    return r;
}

struct TraceGuard {
    double enabled_rows_per_sec = 0.0;
    double disabled_rows_per_sec = 0.0;
    double overhead_pct = 0.0;
    bool pass = false;
};

constexpr double kTraceGuardThresholdPct = 3.0;
/** Trace guard: wall time of calls per side of a pair, and pairs. */
constexpr double kTraceSampleSeconds = 0.100;
constexpr int kTraceGuardPairs = 11;

/**
 * Guard on the row-count rule itself: the kernel sends full 64-row
 * groups through the 8-lane x 8-group vector loop and shorter calls
 * through the 16-lane scalar loop, which is only right if one vector
 * group is not slower per row than the scalar groups it replaces. On
 * the HIGGS 128-tree depth-10 shape (the paper's heavyweight CPU
 * case), 64-row calls (one vector group each) must reach the rows/s
 * of 48-row calls (three scalar groups each), on one thread.
 *
 * Because shared-VM throughput drifts by tens of percent between
 * back-to-back runs of the same binary, the guard interleaves the two
 * call sizes in pairs and gates on the median of per-pair ratios —
 * drift hits both sides of a pair equally and cancels. The 10%
 * tolerance below the break-even ratio absorbs residual per-pair
 * jitter, not a real regression — a loop regression shows up as a
 * ratio far below it. Without a vector backend both call sizes run
 * the scalar loop, so the ratio is recorded but not enforced.
 */
struct RuleGuard {
    double rows48_per_sec = 0.0;
    double rows64_per_sec = 0.0;
    double ratio = 0.0;
    bool pass = false;
};

constexpr double kRuleGuardMinRatio = 0.90;

RuleGuard
RunRuleGuard(std::size_t train_rows, std::size_t eval_rows, int pairs)
{
    const Config config{"HIGGS", 128, 10};
    const RandomForest forest = TrainShape(config, train_rows);
    const Dataset eval = MakeHiggs(eval_rows, 7);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    // Whole calls on both sides: a multiple of lcm(48, 64) rows.
    const std::size_t n = eval_rows / 192 * 192;
    auto kernel = forest.Kernel();

    ForestKernel::Scratch scratch;
    std::vector<float> out;
    RunInCalls(*kernel, rows, n, cols, 48, scratch, out);  // warm
    RunInCalls(*kernel, rows, n, cols, 64, scratch, out);

    std::vector<double> ratios;
    double best48 = 0.0;
    double best64 = 0.0;
    for (int p = 0; p < pairs; ++p) {
        const double s48 = BestOfWall(1, [&] {
            RunInCalls(*kernel, rows, n, cols, 48, scratch, out);
        });
        const double s64 = BestOfWall(1, [&] {
            RunInCalls(*kernel, rows, n, cols, 64, scratch, out);
        });
        best48 = std::max(best48, static_cast<double>(n) / s48);
        best64 = std::max(best64, static_cast<double>(n) / s64);
        ratios.push_back(s48 / s64);
    }
    std::sort(ratios.begin(), ratios.end());

    RuleGuard g;
    g.rows48_per_sec = best48;
    g.rows64_per_sec = best64;
    g.ratio = ratios[ratios.size() / 2];
    g.pass = std::strcmp(ForestKernel::SimdBackend(), "scalar") == 0 ||
             g.ratio >= kRuleGuardMinRatio;
    return g;
}

void
WriteJson(const std::string& path, const std::vector<Result>& results,
          bool smoke, const TraceGuard& guard, const RuleGuard& rule_guard)
{
    BenchJsonWriter doc("wallclock_kernels", smoke);
    doc.SetSchemaVersion(3);
    doc.header()
        .Int("threads", ThreadPool::Shared().size())
        .Str("simd_backend", ForestKernel::SimdBackend())
        .Int("call_rows", kPageRows)
        .Num("trace_overhead_pct", guard.overhead_pct)
        .Num("trace_guard_threshold_pct", kTraceGuardThresholdPct)
        .Bool("trace_guard_pass", guard.pass)
        .Num("rule_guard_rows48_per_sec", rule_guard.rows48_per_sec)
        .Num("rule_guard_rows64_per_sec", rule_guard.rows64_per_sec)
        .Num("rule_guard_ratio", rule_guard.ratio)
        .Num("rule_guard_min_ratio", kRuleGuardMinRatio)
        .Bool("rule_guard_pass", rule_guard.pass);
    for (const Result& r : results) {
        doc.AddResult()
            .Str("dataset", r.config.dataset)
            .Int("trees", r.config.trees)
            .Int("depth", r.config.depth)
            .Int("rows", r.rows)
            .Num("kernel_build_ms", r.kernel_build_ms)
            .Num("scalar_rows_per_sec", r.scalar_rows_per_sec)
            .Num("kernel_rows_per_sec", r.kernel_rows_per_sec)
            .Num("call36_rows_per_sec", r.call36_rows_per_sec)
            .Num("speedup", r.Speedup())
            .Bool("bit_identical", r.bit_identical);
    }
    doc.Write(path);
}

/**
 * Tracing hot-path guard: the always-on kernel spans must cost < 3% of
 * kernel throughput. Measures the same Predict loop with the collector
 * enabled vs disabled and reports the relative regression.
 *
 * One smoke call takes about a millisecond, so 3% of a call is below
 * the thread pool's wake-up jitter, and on a shared VM the speed of
 * back-to-back 50 ms blocks drifts by tens of percent. So each of
 * kTraceGuardPairs interleaved pairs spans at least kTraceSampleSeconds
 * of calls per side, taken alternately (the side that goes first
 * alternating too), and reads the median ratio of adjacent enabled and
 * disabled calls: drift slower than one call, and a call stalled by a
 * late worker, then hit both sides alike. The guard is the median of
 * the per-pair overheads.
 */
TraceGuard
RunTraceGuard(bool smoke)
{
    const std::size_t trees = smoke ? 8 : 32;
    const std::size_t train_rows = smoke ? 2000 : 20000;
    const std::size_t eval_rows = smoke ? 20000 : 200000;
    const Dataset train = MakeHiggs(train_rows, 42);
    const Dataset eval = MakeHiggs(eval_rows, 7);

    ForestTrainerConfig trainer;
    trainer.num_trees = trees;
    trainer.max_depth = 10;
    trainer.seed = 42;
    const RandomForest forest = TrainForest(train, trainer);
    auto kernel = forest.Kernel();

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    std::vector<float> out;
    auto predict = [&] { out = kernel->Predict(rows, eval_rows, cols); };

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.SetEnabled(true);
    predict();  // warmup
    const int calls = std::max(
        1, static_cast<int>(std::ceil(kTraceSampleSeconds /
                                      BestOfWall(3, predict))));
    auto timed = [&](bool enabled) {
        tracer.SetEnabled(enabled);
        const auto start = std::chrono::steady_clock::now();
        predict();
        return SecondsSince(start);
    };

    std::vector<double> overheads;
    double enabled_s = 0.0;
    double disabled_s = 0.0;
    for (int p = 0; p < kTraceGuardPairs; ++p) {
        double on = 0.0;
        double off = 0.0;
        std::vector<double> ratios;
        for (int c = 0; c < calls; ++c) {
            const bool on_first = c % 2 == 0;
            const double first = timed(on_first);
            const double second = timed(!on_first);
            const double t_on = on_first ? first : second;
            const double t_off = on_first ? second : first;
            on += t_on / calls;
            off += t_off / calls;
            ratios.push_back(t_on / t_off);
        }
        std::sort(ratios.begin(), ratios.end());
        enabled_s = p == 0 ? on : std::min(enabled_s, on);
        disabled_s = p == 0 ? off : std::min(disabled_s, off);
        overheads.push_back((ratios[ratios.size() / 2] - 1.0) * 100.0);
    }
    tracer.SetEnabled(true);
    tracer.Clear();  // discard the guard's own spans
    std::sort(overheads.begin(), overheads.end());

    TraceGuard g;
    g.enabled_rows_per_sec = static_cast<double>(eval_rows) / enabled_s;
    g.disabled_rows_per_sec = static_cast<double>(eval_rows) / disabled_s;
    g.overhead_pct = std::max(0.0, overheads[overheads.size() / 2]);
    g.pass = g.overhead_pct < kTraceGuardThresholdPct;
    return g;
}

int
Run(bool smoke, const std::string& out_path, const std::string& filter)
{
    // Smoke keeps CI fast: smaller HIGGS training sample, fewer
    // evaluation rows, no 32/128-tree training in the sweep (the rule
    // guard still trains its 128-tree shape). Schema is identical.
    const std::size_t train_rows = smoke ? 2000 : 20000;
    const std::size_t eval_rows = smoke ? 20000 : 200000;
    const int repeats = smoke ? 2 : 3;
    const std::vector<std::size_t> tree_counts =
        smoke ? std::vector<std::size_t>{1, 8}
              : std::vector<std::size_t>{1, 8, 32, 128};

    std::vector<Result> results;
    std::cout << "wallclock_kernels (real wall time, machine-dependent; "
              << (smoke ? "smoke" : "full") << " mode, " << eval_rows
              << " rows, simd backend " << ForestKernel::SimdBackend()
              << ")\n"
              << "dataset trees depth  scalar-rows/s  batch-rows/s  "
              << "36-row-rows/s speedup build-ms identical\n";
    bool all_identical = true;
    for (const char* dataset : {"IRIS", "HIGGS"}) {
        for (std::size_t trees : tree_counts) {
            for (std::size_t depth : {std::size_t{6}, std::size_t{10}}) {
                const std::string label = std::string(dataset) + ":" +
                                          std::to_string(trees) + ":" +
                                          std::to_string(depth);
                if (!filter.empty() &&
                    label.find(filter) == std::string::npos) {
                    continue;
                }
                Result r = RunConfig({dataset, trees, depth}, train_rows,
                                     eval_rows, repeats);
                all_identical = all_identical && r.bit_identical;
                std::printf(
                    "%-7s %5zu %5zu %14.0f %13.0f %14.0f %7.2f %8.2f "
                    "%9s\n",
                    dataset, trees, depth, r.scalar_rows_per_sec,
                    r.kernel_rows_per_sec, r.call36_rows_per_sec,
                    r.Speedup(), r.kernel_build_ms,
                    r.bit_identical ? "yes" : "NO");
                results.push_back(r);
            }
        }
    }
    const TraceGuard guard = RunTraceGuard(smoke);
    std::printf("trace overhead guard: enabled %.0f rows/s, disabled "
                "%.0f rows/s, overhead %.2f%% (threshold %.1f%%) %s\n",
                guard.enabled_rows_per_sec, guard.disabled_rows_per_sec,
                guard.overhead_pct, kTraceGuardThresholdPct,
                guard.pass ? "PASS" : "FAIL");
    const RuleGuard rule_guard =
        RunRuleGuard(train_rows, eval_rows, smoke ? 7 : 15);
    std::printf("row-count rule guard (HIGGS 128x10): 48-row calls %.0f "
                "rows/s, 64-row calls %.0f rows/s, median paired ratio "
                "%.2f (floor %.2f) %s\n",
                rule_guard.rows48_per_sec, rule_guard.rows64_per_sec,
                rule_guard.ratio, kRuleGuardMinRatio,
                rule_guard.pass ? "PASS" : "FAIL");
    WriteJson(out_path, results, smoke, guard, rule_guard);
    std::cout << "wrote " << out_path << "\n";
    if (!all_identical) {
        std::cerr << "FAIL: kernel predictions diverged from the scalar "
                  << "reference path\n";
        return 1;
    }
    if (!guard.pass) {
        std::cerr << "FAIL: tracing costs " << guard.overhead_pct
                  << "% of kernel throughput (budget "
                  << kTraceGuardThresholdPct << "%)\n";
        return 1;
    }
    if (!rule_guard.pass) {
        std::cerr << "FAIL: 64-row vector calls are slower than 48-row "
                  << "scalar calls on the HIGGS 128-tree shape (median "
                  << "paired ratio " << rule_guard.ratio << " < "
                  << kRuleGuardMinRatio << ")\n";
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
        argc, argv, "wallclock_kernels", "BENCH_kernels.json",
        /*accepts_filter=*/true);
    if (!args.ok) {
        return 2;
    }
    return dbscore::bench::Run(args.smoke, args.out_path, args.filter);
}

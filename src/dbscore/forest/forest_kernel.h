/**
 * @file
 * ForestKernel: a compiled, cache-blocked, allocation-free batch
 * inference plan for random forests; a GBDT scores here as the
 * regression forest of its exported ensemble
 * (GradientBoostedModel::ToTreeEnsemble).
 *
 * The reference RandomForest::Predict walks one tree at a time through
 * per-tree std::vector storage — five vector-header dereferences per
 * tree per row and a working set that revisits the whole ensemble for
 * every row. ForestKernel compiles the ensemble once into one flat node
 * pool with every tree's nodes in level (BFS) order, so the first K
 * levels of a tree — the part every row traverses — occupy a
 * contiguous prefix of its node range. BFS emits siblings adjacently,
 * so the right child is implicitly left + 1 and the descend step is
 * branchless integer arithmetic:
 * n = left[n] + !(row[feature[n]] <= threshold[n]), which matches the
 * reference "x <= t goes left, else (including NaN) right" exactly.
 *
 * One node layout: 8 bytes per node, an f32 threshold followed by one
 * word packing a 15-bit feature id over a 17-bit tree-local left
 * child. A leaf is {threshold = +inf, left = self}, so the branchless
 * step is a no-op once a row bottoms out and a tree of depth D is
 * walked in at most D steps with no leaf test.
 *
 * One row-count rule picks the inner loop, per call, from what the
 * kernel can see: every full 64-row group runs the 8-lane x 8-group
 * SIMD loop of the simd.h shim (gathered node loads, a blended descend
 * n = left - (x > t ? -1 : 0)), and the remaining rows run a 16-lane
 * scalar loop (all rows, when no vector backend runs). Both loops stop
 * a tree early once every lane parks on its leaf, and both take
 * per-row offsets, so PredictThreshold's compacted still-undecided
 * rows share them with dense batches. Row blocks and tree tiles are
 * fixed constants; see DESIGN.md §8 for the measured rule.
 *
 * Predictions are bit-identical to the reference scalar path: tree
 * order within a row is preserved across tiles, so regression sums
 * (double accumulation in tree order) and classification votes
 * (integer counts, lowest-class-id tie break) reproduce the reference
 * exactly — tests assert this. Votes and sums accumulate into a
 * caller-owned reusable Scratch, so steady-state Run() performs zero
 * heap allocations.
 *
 * Wall-clock only: the kernel changes how fast functional predictions
 * are computed, never the simulated OffloadBreakdown latencies (see
 * DESIGN.md, "Functional kernels vs simulated time"). Compilation is
 * attributed to the kKernelBuild trace stage.
 */
#ifndef DBSCORE_FOREST_FOREST_KERNEL_H
#define DBSCORE_FOREST_FOREST_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dbscore/data/dataset.h"

namespace dbscore {

class RandomForest;
class DecisionTree;

/** How per-tree outputs combine into a final prediction. */
enum class KernelCombine : std::uint8_t {
    kVoteClassify,  ///< classification: majority vote, lowest-id tie break
    kMeanRegress,   ///< regression: mean of leaf values (tree order)
};

/** Comparison a query pushes into traversal via PredictThreshold. */
enum class ThresholdOp : std::uint8_t {
    kGt,  ///< prediction >  threshold
    kGe,  ///< prediction >= threshold
    kLt,  ///< prediction <  threshold
    kLe,  ///< prediction <= threshold
};

/**
 * Trees PredictThreshold accumulates between two early-exit decision
 * points: a kernel of at most this many trees decides every row only
 * after its last tree.
 */
inline constexpr std::size_t kThresholdCheckTrees = 8;

/** True when @p value satisfies "@p value op @p threshold". */
bool ThresholdHolds(ThresholdOp op, float threshold, float value);

/** Work accounting for PredictThreshold (accumulates across calls). */
struct ThresholdStats {
    std::uint64_t rows = 0;
    /** Rows whose predicate was decided before the last tree. */
    std::uint64_t rows_decided_early = 0;
    /** (tree, row) traversals actually executed. */
    std::uint64_t tree_traversals = 0;
    /** rows x num_trees: what a full scoring pass would execute. */
    std::uint64_t tree_traversals_full = 0;
};

/** A compiled ensemble inference plan; immutable after construction. */
class ForestKernel {
 public:
    /**
     * Reusable per-thread working set. Buffers grow on first use and
     * are reused afterwards, so steady-state Run() calls allocate
     * nothing. Not thread-safe: one Scratch per running thread.
     */
    class Scratch {
     private:
        friend class ForestKernel;
        /** Per-(row, class) vote counts, row block x num_classes. */
        std::vector<std::int32_t> counts;
        /** Per-row accumulators, tree order, one row block. */
        std::vector<double> sums;
        /** Per-row float offsets from the block base (loop input). */
        std::vector<std::int32_t> offsets;
        /** PredictThreshold: block row of each undecided row. */
        std::vector<std::int32_t> active;
    };

    /**
     * Compiles @p forest. The forest may be destroyed afterwards; the
     * kernel owns flat copies of everything it needs.
     *
     * @throws InvalidArgument when Supports(forest) is false
     */
    explicit ForestKernel(const RandomForest& forest);

    ForestKernel(ForestKernel&&) = delete;
    ForestKernel& operator=(ForestKernel&&) = delete;

    /**
     * True when @p forest fits the packed node word: at least one
     * tree, at most 32767 features, and no tree over 2^17 nodes.
     * Callers take the reference path otherwise.
     */
    static bool Supports(const RandomForest& forest);

    Task task() const { return task_; }
    int num_classes() const { return num_classes_; }
    std::size_t num_features() const { return num_features_; }
    std::size_t NumTrees() const { return roots_.size(); }
    std::size_t NumNodes() const { return nodes_.size(); }
    /** Tree tiles the ensemble was partitioned into. */
    std::size_t NumTiles() const { return tiles_.size(); }
    KernelCombine combine() const { return combine_; }

    /** Backend of the 64-row loop: "avx2", "neon", or "scalar". */
    static const char* SimdBackend();

    /**
     * Wall-clock milliseconds the compile took — the build cost a
     * serving layer re-pays when a cached kernel is evicted and later
     * rebuilt (the fleet registry's re-warm tax).
     */
    double build_wall_ms() const { return build_wall_ms_; }

    /**
     * Single-threaded execution: writes one prediction per row into
     * @p out (caller-owned, at least @p num_rows floats). Zero heap
     * allocations once @p scratch is warm. Thread-safe w.r.t. the
     * kernel (const); @p scratch must not be shared across threads.
     *
     * @throws InvalidArgument on arity mismatch
     */
    void Run(const float* rows, std::size_t num_rows, std::size_t num_cols,
             float* out, Scratch& scratch) const;

    /**
     * Zero-copy variant: traverses @p rows in place, honoring its
     * stride — strided views (e.g. a column-prefix of a wider block)
     * run directly, no compaction copy.
     */
    void Run(const RowView& rows, float* out, Scratch& scratch) const;

    /**
     * Batch prediction with chunked ThreadPool parallelism (thread-local
     * scratch per worker) from kParallelRowCutoff rows on. Matches the
     * reference scalar path bit-for-bit.
     */
    std::vector<float> Predict(const float* rows, std::size_t num_rows,
                               std::size_t num_cols) const;

    /** Zero-copy batch prediction over a (possibly strided) view. */
    std::vector<float> Predict(const RowView& rows) const;

    /**
     * True when PredictThreshold can stop accumulating trees early:
     * the accumulating combiner, kMeanRegress. Its finisher
     * g(sum) = float(sum / T) is monotone non-decreasing in the sum,
     * so a conservative [lo, hi] interval on the remaining-tree
     * contribution decides "g(sum) op θ" exactly (DESIGN.md §14).
     */
    bool SupportsThresholdEarlyExit() const;

    /**
     * Evaluates "prediction(row) op threshold" per row without
     * materializing a score column: keep[i] is 1 when row i satisfies
     * the predicate, else 0. Bit-equivalent to comparing Predict()
     * output — early exit uses per-tree leaf-value suffix bounds plus
     * a rounding-slack margin, and rows whose interval straddles the
     * threshold finish all trees exactly, on the same traversal loops
     * as Predict(). Vote combiners score fully and compare (no early
     * exit, still exact). @p stats, when non-null, accumulates
     * traversal-work accounting.
     */
    std::vector<std::uint8_t> PredictThreshold(
        const RowView& rows, ThresholdOp op, float threshold,
        ThresholdStats* stats = nullptr) const;

 private:
    /**
     * One traversal node: an f32 threshold and a word packing the
     * feature id (high 15 bits) over the tree-local left child (low
     * 17 bits). The right child is implicitly left + 1 (BFS emits
     * siblings adjacently); a leaf is {+inf, left = self}.
     */
    struct Node {
        float threshold;
        std::uint32_t meta;
    };

    /** A run of consecutive trees whose nodes share one cache tile. */
    struct TreeTile {
        std::size_t first_tree;
        std::size_t end_tree;
    };

    void Compile(const std::vector<DecisionTree>& trees);

    /**
     * Walks trees [@p t0, @p t1) for the @p num_rows rows starting
     * @p offsets[i] floats past @p rows, calling visit(i, leaf) with
     * each row's pool index of its leaf, tree by tree in order.
     */
    template <typename Visit>
    void ForEachLeaf(const float* rows, const std::int32_t* offsets,
                     std::size_t num_rows, std::size_t t0, std::size_t t1,
                     Visit&& visit) const;

    /** One row block: classification vote kernels. */
    void RunBlockVote(const float* rows, const std::int32_t* offsets,
                      std::size_t num_rows, float* out,
                      Scratch& scratch) const;
    /** One row block: the sum-accumulating (mean-regress) kernel. */
    void RunBlockAccumulate(const float* rows, const std::int32_t* offsets,
                            std::size_t num_rows, float* out,
                            Scratch& scratch) const;
    /** @p stride is the float distance between consecutive rows. */
    void RunStrided(const float* rows, std::size_t num_rows,
                    std::size_t stride, float* out, Scratch& scratch) const;
    /** The mean's monotone finisher for one accumulated sum. */
    float FinishOne(double sum) const;
    /** Early-exit traversal over one chunk (mean-regress kernel). */
    void RunThreshold(const float* rows, std::size_t num_rows,
                      std::size_t stride, ThresholdOp op, float threshold,
                      std::uint8_t* keep, Scratch& scratch,
                      ThresholdStats& stats) const;

    Task task_ = Task::kClassification;
    int num_classes_ = 0;
    std::size_t num_features_ = 0;
    KernelCombine combine_ = KernelCombine::kVoteClassify;
    double build_wall_ms_ = 0.0;
    /** Whether the 64-row SIMD loop runs (a vector backend is live). */
    bool simd_ = false;

    /** Pool index of each tree's root (== the tree's base offset). */
    std::vector<std::int32_t> roots_;
    /** Depth of each tree in edges: the traversal trip-count bound. */
    std::vector<std::int32_t> depths_;
    /** Flattened node pool, level order per tree. */
    std::vector<Node> nodes_;
    /** Leaf payload: value (mean-regress kernel), by pool index. */
    std::vector<float> value_;
    /** Leaf payload: class id (vote kernels), by pool index. */
    std::vector<std::int32_t> leaf_class_;

    std::vector<TreeTile> tiles_;

    /**
     * Threshold early-exit bounds (mean-regress kernel), indexed by
     * tree: suffix_min_[t] / suffix_max_[t] bound the summed
     * contribution (leaf values) of trees [t, T), and
     * suffix_abs_[t] sums their magnitudes for the rounding-slack
     * term. Size T + 1 with zeros at index T.
     */
    std::vector<double> suffix_min_;
    std::vector<double> suffix_max_;
    std::vector<double> suffix_abs_;
};

}  // namespace dbscore

#endif  // DBSCORE_FOREST_FOREST_KERNEL_H

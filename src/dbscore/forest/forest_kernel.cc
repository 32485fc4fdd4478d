#include "dbscore/forest/forest_kernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <type_traits>

#include "dbscore/common/error.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/simd.h"
#include "dbscore/trace/trace.h"

namespace dbscore {

namespace {

/** Bits of the packed node word holding the tree-local left child. */
constexpr int kLeftBits = 17;
constexpr std::uint32_t kLeftMask = (std::uint32_t{1} << kLeftBits) - 1;
/** Largest tree (nodes) and feature count the packed word addresses. */
constexpr std::size_t kMaxTreeNodes = std::size_t{1} << kLeftBits;
constexpr std::size_t kMaxFeatures = 32767;

/**
 * Rows traversed concurrently per tree by the scalar loop. Each lane
 * is an independent dependence chain of node loads, so the
 * out-of-order core keeps this many traversals in flight — the main
 * lever against the load latency that dominates pointer-chasing
 * inference. Compile-time so the lane state lives in registers.
 */
constexpr std::size_t kScalarLanes = 16;
/**
 * Lanes of the groups that finish a sub-16-row remainder before the
 * one-row tail: four chains in flight instead of one, e.g. for the
 * last 4 rows of a 36-row page.
 */
constexpr std::size_t kTailLanes = 4;
/** Row groups of simd::kWidth lanes the vector loop interleaves. */
constexpr std::size_t kSimdGroups = 8;
/** Rows one vector-loop call covers; shorter remainders run scalar. */
constexpr std::size_t kSimdRows = kSimdGroups * simd::kWidth;
/** Rows per block: the scratch high-water mark and the tile sweep. */
constexpr std::size_t kRowBlock = 256;
/**
 * Node budget of one tree tile (512 KB of 8-byte nodes): a row block
 * walks every tree of a tile before moving to the next, so the tile's
 * nodes stay cache-resident across the block's row groups.
 */
constexpr std::size_t kTileNodeBudget = std::size_t{1} << 16;

/**
 * Rows per block for rows @p stride floats apart: the per-row offsets
 * the loops take are int32, so a block never spans more than
 * INT32_MAX floats (only ever binding for absurdly wide rows).
 */
std::size_t
BlockRows(std::size_t stride)
{
    constexpr auto kMaxOffset = static_cast<std::size_t>(
        std::numeric_limits<std::int32_t>::max()) - kMaxFeatures;
    if (stride <= kMaxOffset / kRowBlock) {
        return kRowBlock;  // every real table; no division per call
    }
    return kMaxOffset / stride + 1;
}

/**
 * Walks one tree for a group of kLanes rows, leaving each lane's
 * tree-local leaf index in @p n. At most @p depth branchless steps per
 * lane: leaves self-loop via {+inf, left = self}, so rows that bottom
 * out early spin in place from L1, and the level loop breaks once
 * every lane has parked. The step left + !(x <= t) matches the
 * reference "x <= t goes left, else (including NaN) right" bit for
 * bit.
 */
template <std::size_t kLanes, typename NodeT>
inline void
TraverseScalar(const NodeT* tree, std::int32_t depth,
               const float* const* rowp, std::int32_t* n)
{
    for (std::size_t k = 0; k < kLanes; ++k) {
        n[k] = 0;
    }
    for (std::int32_t d = 0; d < depth; ++d) {
        std::int32_t moved = 0;
        // Fully unrolled, so every lane's node index stays in a
        // register (GCC's size heuristic otherwise keeps the loop).
#pragma GCC unroll 16
        for (std::size_t k = 0; k < kLanes; ++k) {
            const NodeT nd = tree[n[k]];
            // (word + step) & mask == left + step: right = left + 1
            // is still a tree-local index, so the add never carries
            // into the feature bits (and lets the compiler fold the
            // compare into one add-with-carry).
            const std::uint32_t word =
                nd.meta + static_cast<std::uint32_t>(
                              !(rowp[k][nd.meta >> kLeftBits] <=
                                nd.threshold));
            const auto next = static_cast<std::int32_t>(word & kLeftMask);
            moved |= next ^ n[k];
            n[k] = next;
        }
        // All lanes parked on their self-looping leaves: the remaining
        // levels would be no-ops. Pays off on shallow ensembles (IRIS)
        // where the average path is much shorter than the deepest one.
        if (moved == 0) {
            break;
        }
    }
}

#if defined(DBSCORE_SIMD_VECTOR)
/**
 * Vector traversal: kSimdGroups interleaved groups of simd::kWidth rows
 * through one tree, @p tree being its nodes viewed as floats (node n's
 * threshold at 2n, its packed word at 2n + 1, so both gathers land on
 * the node's one cache line). Each step gathers one feature per lane
 * at the row's offset from @p rows, and blends the descend as integer
 * mask arithmetic: CmpNotLe yields -1 where the row goes right, so
 * next = left - mask. Eight groups keep 24 gathers in flight per step,
 * hiding gather latency on one core; the level loop breaks once every
 * lane of every group has parked on its leaf.
 */
DBSCORE_SIMD_FN void
TraverseSimd(const float* tree, std::int32_t depth, const float* rows,
             const std::int32_t* offsets, std::int32_t* leaves)
{
    using namespace simd;
    const auto* words = reinterpret_cast<const std::int32_t*>(tree) + 1;
    const VI mask = Set1(static_cast<std::int32_t>(kLeftMask));
    VI n[kSimdGroups];
    for (std::size_t g = 0; g < kSimdGroups; ++g) {
        n[g] = Set1(0);
    }
    for (std::int32_t d = 0; d < depth; ++d) {
        // One accumulated motion mask per level replaces a per-group
        // movemask: parked lanes contribute all-zero next ^ n.
        VI motion = Set1(0);
        for (std::size_t g = 0; g < kSimdGroups; ++g) {
            const VI n2 = Add(n[g], n[g]);
            const VF t = GatherF32(tree, n2);
            const VI w = GatherI32(words, n2);
            // Offsets are re-read from L1 each step rather than held:
            // eight more live vectors would spill the node indices.
            const VF x = GatherF32(
                rows, Add(Load(offsets + g * kWidth), Srl(w, kLeftBits)));
            const VI next = Sub(And(w, mask), CmpNotLe(x, t));
            motion = Or(motion, Xor(next, n[g]));
            n[g] = next;
        }
        if (!AnyNonZero(motion)) {
            break;
        }
    }
    for (std::size_t g = 0; g < kSimdGroups; ++g) {
        Store(leaves + g * kWidth, n[g]);
    }
}
#endif

bool
EnsembleSupported(const std::vector<DecisionTree>& trees,
                  std::size_t num_features)
{
    if (trees.empty() || num_features > kMaxFeatures) {
        return false;
    }
    return std::all_of(trees.begin(), trees.end(),
                       [](const DecisionTree& tree) {
                           return tree.NumNodes() <= kMaxTreeNodes;
                       });
}

/**
 * Decides "value op threshold" for a value known to lie in
 * [glo, ghi]: 1 (holds for the whole interval), 0 (fails for the
 * whole interval), or -1 (undecided). kGt/kGe true-sets are
 * up-closed and kLt/kLe down-closed, so the interval endpoints
 * suffice.
 */
int
DecideThreshold(ThresholdOp op, float threshold, float glo, float ghi)
{
    const bool lo_holds = ThresholdHolds(op, threshold, glo);
    const bool hi_holds = ThresholdHolds(op, threshold, ghi);
    const bool up = op == ThresholdOp::kGt || op == ThresholdOp::kGe;
    if (up) {
        if (lo_holds) return 1;
        if (!hi_holds) return 0;
    } else {
        if (hi_holds) return 1;
        if (!lo_holds) return 0;
    }
    return -1;
}

}  // namespace

bool
ForestKernel::Supports(const RandomForest& forest)
{
    return EnsembleSupported(forest.trees(), forest.num_features());
}

ForestKernel::ForestKernel(const RandomForest& forest)
    : task_(forest.task()),
      num_classes_(forest.num_classes()),
      num_features_(forest.num_features()),
      combine_(forest.task() == Task::kClassification
                   ? KernelCombine::kVoteClassify
                   : KernelCombine::kMeanRegress)
{
    if (!Supports(forest)) {
        throw InvalidArgument("forest kernel: unsupported forest (empty, "
                              "too many features, or an oversized tree)");
    }
    Compile(forest.trees());
}

void
ForestKernel::Compile(const std::vector<DecisionTree>& trees)
{
    // Attribute compilation (the serve path's model prewarming pays
    // this on registration, and mutation pays it again) to its own
    // trace stage.
    const auto build_start = std::chrono::steady_clock::now();
    trace::ScopedSpan span(trace::StageKind::kKernelBuild, "kernel-build");
    span.AddAttr("trees", static_cast<double>(trees.size()));
    simd_ = simd::HaveSimd();

    std::size_t total_nodes = 0;
    for (const auto& tree : trees) {
        total_nodes += tree.NumNodes();
    }
    span.AddAttr("nodes", static_cast<double>(total_nodes));

    const bool vote = combine_ == KernelCombine::kVoteClassify;
    roots_.reserve(trees.size());
    depths_.reserve(trees.size());
    nodes_.reserve(total_nodes);
    if (vote) {
        leaf_class_.reserve(total_nodes);
    } else {
        value_.reserve(total_nodes);
        suffix_min_.assign(trees.size() + 1, 0.0);
        suffix_max_.assign(trees.size() + 1, 0.0);
        suffix_abs_.assign(trees.size() + 1, 0.0);
    }

    std::vector<std::int32_t> order;
    std::vector<std::int32_t> new_id;
    std::size_t tile_start = 0;
    std::size_t tile_nodes = 0;
    for (std::size_t t = 0; t < trees.size(); ++t) {
        const DecisionTree& tree = trees[t];
        const auto base = static_cast<std::int32_t>(nodes_.size());
        roots_.push_back(base);
        depths_.push_back(static_cast<std::int32_t>(tree.Depth()));
        double leaf_lo = std::numeric_limits<double>::infinity();
        double leaf_hi = -std::numeric_limits<double>::infinity();

        // Level (BFS) order: the upper levels every row traverses end
        // up contiguous at the front of the tree's node range, and
        // siblings land adjacently, making right == left + 1.
        const std::size_t n = tree.NumNodes();
        order.clear();
        order.push_back(0);
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::int32_t node = order[i];
            if (!tree.IsLeaf(node)) {
                order.push_back(tree.Left(node));
                order.push_back(tree.Right(node));
            }
        }
        DBS_ASSERT_MSG(order.size() == n,
                       "forest kernel: tree has unreachable nodes");
        new_id.assign(n, -1);
        for (std::size_t i = 0; i < n; ++i) {
            new_id[static_cast<std::size_t>(order[i])] =
                static_cast<std::int32_t>(i);
        }

        for (std::int32_t node : order) {
            const auto local = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(nodes_.size()) - base);
            if (tree.IsLeaf(node)) {
                const float value = tree.LeafValue(node);
                // {+inf, self}: the branchless step re-evaluates the
                // leaf harmlessly (anything <= +inf stays at
                // left = self) until the trip count runs out.
                nodes_.push_back(
                    {std::numeric_limits<float>::infinity(), local});
                if (vote) {
                    DBS_ASSERT(LeafIsClassId(value, num_classes_));
                    leaf_class_.push_back(
                        static_cast<std::int32_t>(std::lround(value)));
                } else {
                    value_.push_back(value);
                    leaf_lo = std::min(leaf_lo, static_cast<double>(value));
                    leaf_hi = std::max(leaf_hi, static_cast<double>(value));
                }
            } else {
                const std::int32_t f = tree.Feature(node);
                DBS_ASSERT(f >= 0 &&
                           static_cast<std::size_t>(f) < kMaxFeatures);
                const std::int32_t left =
                    new_id[static_cast<std::size_t>(tree.Left(node))];
                DBS_ASSERT_MSG(
                    new_id[static_cast<std::size_t>(tree.Right(node))] ==
                        left + 1,
                    "forest kernel: BFS siblings must be adjacent");
                nodes_.push_back(
                    {tree.Threshold(node),
                     (static_cast<std::uint32_t>(f) << kLeftBits) |
                         static_cast<std::uint32_t>(left)});
                if (vote) {
                    leaf_class_.push_back(0);
                } else {
                    value_.push_back(0.0f);
                }
            }
        }
        if (!vote) {
            // A tree whose leaves are all NaN keeps lo = +inf and
            // hi = -inf; ordering them bounds it by [-inf, +inf].
            suffix_min_[t] = std::min(leaf_lo, leaf_hi);
            suffix_max_[t] = std::max(leaf_lo, leaf_hi);
            suffix_abs_[t] = std::max(std::abs(leaf_lo), std::abs(leaf_hi));
        }

        // Partition consecutive trees into tiles whose pooled nodes fit
        // the cache budget; a single oversized tree gets its own tile.
        if (t > tile_start && tile_nodes + n > kTileNodeBudget) {
            tiles_.push_back({tile_start, t});
            tile_start = t;
            tile_nodes = 0;
        }
        tile_nodes += n;
    }
    tiles_.push_back({tile_start, trees.size()});

    if (!vote) {
        // Suffix bounds on the remaining-tree contribution: after t
        // trees the final sum lies in
        // [sum + suffix_min_[t], sum + suffix_max_[t]] up to rounding
        // (covered by the slack term at decision time).
        for (std::size_t t = trees.size(); t-- > 0;) {
            suffix_min_[t] += suffix_min_[t + 1];
            suffix_max_[t] += suffix_max_[t + 1];
            suffix_abs_[t] += suffix_abs_[t + 1];
        }
    }

    build_wall_ms_ = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - build_start)
                         .count();
}

const char*
ForestKernel::SimdBackend()
{
    return simd::ActiveBackend();
}

template <typename Visit>
void
ForestKernel::ForEachLeaf(const float* rows, const std::int32_t* offsets,
                          std::size_t num_rows, std::size_t t0,
                          std::size_t t1, Visit&& visit) const
{
    const Node* const nodes = nodes_.data();
    std::size_t r = 0;
#if defined(DBSCORE_SIMD_VECTOR)
    // The row-count rule: every full 64-row group takes the vector
    // loop; what is left (and every row without a live vector
    // backend) takes the 16-lane scalar loop below.
    if (simd_) {
        std::int32_t leaves[kSimdRows];
        for (; r + kSimdRows <= num_rows; r += kSimdRows) {
            for (std::size_t t = t0; t < t1; ++t) {
                const std::int32_t root = roots_[t];
                TraverseSimd(reinterpret_cast<const float*>(nodes + root),
                             depths_[t], rows, offsets + r, leaves);
                for (std::size_t i = 0; i < kSimdRows; ++i) {
                    visit(r + i, root + leaves[i]);
                }
            }
        }
    }
#endif
    // Row-group outer, trees inner: row pointers are computed once per
    // group and the group's feature rows stay hot in L1 across every
    // tree.
    auto scalar_groups = [&](auto lanes) {
        constexpr std::size_t kLanes = decltype(lanes)::value;
        for (; r + kLanes <= num_rows; r += kLanes) {
            const float* rowp[kLanes];
            for (std::size_t k = 0; k < kLanes; ++k) {
                rowp[k] = rows + offsets[r + k];
            }
            for (std::size_t t = t0; t < t1; ++t) {
                const std::int32_t root = roots_[t];
                std::int32_t n[kLanes];
                TraverseScalar<kLanes>(nodes + root, depths_[t], rowp, n);
                for (std::size_t k = 0; k < kLanes; ++k) {
                    visit(r + k, root + n[k]);
                }
            }
        }
    };
    scalar_groups(std::integral_constant<std::size_t, kScalarLanes>{});
    scalar_groups(std::integral_constant<std::size_t, kTailLanes>{});
    scalar_groups(std::integral_constant<std::size_t, 1>{});
}

float
ForestKernel::FinishOne(double sum) const
{
    // The mean: Predict() and the threshold path's full-finish rows
    // both end here, so those rows are bit-identical to a Predict() of
    // the same row. It is monotone non-decreasing in the sum (division
    // by a positive count and the float cast are correctly rounded),
    // which is what lets interval endpoints decide the predicate.
    return static_cast<float>(sum / static_cast<double>(roots_.size()));
}

bool
ThresholdHolds(ThresholdOp op, float threshold, float value)
{
    switch (op) {
    case ThresholdOp::kGt: return value > threshold;
    case ThresholdOp::kGe: return value >= threshold;
    case ThresholdOp::kLt: return value < threshold;
    case ThresholdOp::kLe: return value <= threshold;
    }
    return false;
}

bool
ForestKernel::SupportsThresholdEarlyExit() const
{
    return combine_ != KernelCombine::kVoteClassify;
}

void
ForestKernel::RunThreshold(const float* rows, std::size_t num_rows,
                           std::size_t stride, ThresholdOp op,
                           float threshold, std::uint8_t* keep,
                           Scratch& scratch, ThresholdStats& stats) const
{
    const std::size_t num_trees = roots_.size();
    stats.rows += num_rows;
    stats.tree_traversals_full += num_rows * num_trees;
    const std::size_t block_rows = std::min(BlockRows(stride), num_rows);
    for (auto* buf : {&scratch.offsets, &scratch.active}) {
        if (buf->size() < block_rows) {
            buf->resize(block_rows);
        }
    }
    if (scratch.sums.size() < block_rows) {
        scratch.sums.resize(block_rows);
    }
    double* const sums = scratch.sums.data();
    std::int32_t* const offsets = scratch.offsets.data();
    std::int32_t* const active = scratch.active.data();
    const float* const val = value_.data();
    auto add_leaf = [sums, val](std::size_t i, std::int32_t leaf) {
        sums[i] += val[leaf];
    };

    for (std::size_t begin = 0; begin < num_rows; begin += block_rows) {
        const std::size_t block = std::min(block_rows, num_rows - begin);
        const float* const base = rows + begin * stride;
        std::uint8_t* const block_keep = keep + begin;
        for (std::size_t i = 0; i < block; ++i) {
            sums[i] = 0.0;
            active[i] = static_cast<std::int32_t>(i);
            offsets[i] = static_cast<std::int32_t>(i * stride);
        }
        std::size_t live = block;

        for (std::size_t t0 = 0; live > 0 && t0 < num_trees;) {
            // Accumulate trees [t0, t1) over the surviving rows on the
            // same loops as Predict — tree order per row is preserved,
            // so a row that survives to the end carries exactly the
            // sum the full pass would have computed.
            const std::size_t t1 =
                std::min(num_trees, t0 + kThresholdCheckTrees);
            ForEachLeaf(base, offsets, live, t0, t1, add_leaf);
            stats.tree_traversals += live * (t1 - t0);
            t0 = t1;
            if (t0 >= num_trees) {
                break;
            }

            // Decision point: bound the final sum and keep only rows
            // whose interval still straddles the threshold. The slack
            // term over-covers the rounding of both the remaining
            // double accumulation (gamma_k <= k * 2^-52 per unit
            // magnitude) and the suffix sums themselves.
            const double remaining = static_cast<double>(num_trees - t0);
            std::size_t w = 0;
            for (std::size_t i = 0; i < live; ++i) {
                const double s = sums[i];
                const double slack = 1e-15 * (remaining + 4.0) *
                                     (std::abs(s) + suffix_abs_[t0]);
                const float glo = FinishOne(s + suffix_min_[t0] - slack);
                const float ghi = FinishOne(s + suffix_max_[t0] + slack);
                const int dec = DecideThreshold(op, threshold, glo, ghi);
                if (dec >= 0) {
                    block_keep[active[i]] = static_cast<std::uint8_t>(dec);
                } else {
                    active[w] = active[i];
                    offsets[w] = offsets[i];
                    sums[w] = s;
                    ++w;
                }
            }
            stats.rows_decided_early += live - w;
            live = w;
        }

        // Rows that ran every tree finish exactly like Predict().
        for (std::size_t i = 0; i < live; ++i) {
            block_keep[active[i]] =
                ThresholdHolds(op, threshold, FinishOne(sums[i]))
                    ? std::uint8_t{1}
                    : std::uint8_t{0};
        }
    }
}

std::vector<std::uint8_t>
ForestKernel::PredictThreshold(const RowView& rows, ThresholdOp op,
                               float threshold, ThresholdStats* stats) const
{
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    const std::size_t num_rows = rows.rows();
    std::vector<std::uint8_t> keep(num_rows, 0);
    if (num_rows == 0) {
        return keep;
    }
    if (!SupportsThresholdEarlyExit()) {
        // Vote combiners: score fully, then compare. Exact, just
        // without the skipped-tree savings.
        const std::vector<float> preds = Predict(rows);
        for (std::size_t i = 0; i < num_rows; ++i) {
            keep[i] = ThresholdHolds(op, threshold, preds[i])
                          ? std::uint8_t{1}
                          : std::uint8_t{0};
        }
        if (stats != nullptr) {
            stats->rows += num_rows;
            stats->tree_traversals += num_rows * NumTrees();
            stats->tree_traversals_full += num_rows * NumTrees();
        }
        return keep;
    }

    trace::ScopedSpan span(trace::StageKind::kKernel,
                           "forest-kernel-threshold");
    span.AddAttr("rows", static_cast<double>(num_rows));
    span.AddAttr("trees", static_cast<double>(NumTrees()));
    const trace::SpanContext parent = span.context();
    std::mutex stats_mutex;
    ThresholdStats total;
    auto worker = [&, parent](std::size_t begin, std::size_t end) {
        trace::ScopedSpan chunk(trace::StageKind::kKernel,
                                "kernel-threshold-chunk", parent);
        chunk.AddAttr("rows", static_cast<double>(end - begin));
        static thread_local Scratch scratch;
        ThresholdStats local;
        RunThreshold(rows.Row(begin), end - begin, rows.stride(), op,
                     threshold, keep.data() + begin, scratch, local);
        std::lock_guard<std::mutex> lock(stats_mutex);
        total.rows += local.rows;
        total.rows_decided_early += local.rows_decided_early;
        total.tree_traversals += local.tree_traversals;
        total.tree_traversals_full += local.tree_traversals_full;
    };
    if (num_rows >= kParallelRowCutoff) {
        ThreadPool::Shared().ParallelForChunked(num_rows,
                                                kParallelRowCutoff, worker);
    } else {
        worker(0, num_rows);
    }
    span.AddAttr("early",
                 static_cast<double>(total.rows_decided_early));
    if (stats != nullptr) {
        stats->rows += total.rows;
        stats->rows_decided_early += total.rows_decided_early;
        stats->tree_traversals += total.tree_traversals;
        stats->tree_traversals_full += total.tree_traversals_full;
    }
    return keep;
}

void
ForestKernel::RunBlockVote(const float* rows, const std::int32_t* offsets,
                           std::size_t num_rows, float* out,
                           Scratch& scratch) const
{
    const auto num_classes = static_cast<std::size_t>(num_classes_);
    const std::int32_t* const cls = leaf_class_.data();
    std::int32_t* const counts = scratch.counts.data();
    std::fill(counts, counts + num_rows * num_classes, 0);

    // A block walks one tile's trees before the next tile's, so the
    // tile stays cache-resident across the block's row groups.
    for (const TreeTile& tile : tiles_) {
        ForEachLeaf(rows, offsets, num_rows, tile.first_tree,
                    tile.end_tree,
                    [counts, cls, num_classes](std::size_t i,
                                               std::int32_t leaf) {
                        ++counts[i * num_classes +
                                 static_cast<std::size_t>(cls[leaf])];
                    });
    }
    for (std::size_t i = 0; i < num_rows; ++i) {
        const std::int32_t* c = counts + i * num_classes;
        std::size_t best = 0;
        for (std::size_t k = 1; k < num_classes; ++k) {
            // Strict > keeps the lowest class id on ties, exactly like
            // MajorityVote.
            if (c[k] > c[best]) {
                best = k;
            }
        }
        out[i] = static_cast<float>(best);
    }
}

void
ForestKernel::RunBlockAccumulate(const float* rows,
                                 const std::int32_t* offsets,
                                 std::size_t num_rows, float* out,
                                 Scratch& scratch) const
{
    const float* const val = value_.data();
    double* const sums = scratch.sums.data();
    std::fill(sums, sums + num_rows, 0.0);

    // Tiles cover consecutive trees in ensemble order, so each row's
    // double sum accumulates in the reference order and the mean is
    // bit-identical to the scalar path.
    for (const TreeTile& tile : tiles_) {
        ForEachLeaf(rows, offsets, num_rows, tile.first_tree,
                    tile.end_tree,
                    [sums, val](std::size_t i, std::int32_t leaf) {
                        sums[i] += val[leaf];
                    });
    }
    for (std::size_t i = 0; i < num_rows; ++i) {
        out[i] = FinishOne(sums[i]);
    }
}

void
ForestKernel::RunStrided(const float* rows, std::size_t num_rows,
                         std::size_t stride, float* out,
                         Scratch& scratch) const
{
    if (num_rows == 0) {
        return;
    }
    const bool vote = combine_ == KernelCombine::kVoteClassify;
    const std::size_t block_rows = std::min(BlockRows(stride), num_rows);
    if (vote) {
        const std::size_t need =
            block_rows * static_cast<std::size_t>(num_classes_);
        if (scratch.counts.size() < need) {
            scratch.counts.resize(need);
        }
    } else if (scratch.sums.size() < block_rows) {
        scratch.sums.resize(block_rows);
    }
    // Dense rows: the same per-row offsets serve every block.
    if (scratch.offsets.size() < block_rows) {
        scratch.offsets.resize(block_rows);
    }
    std::int32_t* const offsets = scratch.offsets.data();
    for (std::size_t i = 0; i < block_rows; ++i) {
        offsets[i] = static_cast<std::int32_t>(i * stride);
    }

    for (std::size_t begin = 0; begin < num_rows; begin += block_rows) {
        const std::size_t block = std::min(block_rows, num_rows - begin);
        if (vote) {
            RunBlockVote(rows + begin * stride, offsets, block, out + begin,
                         scratch);
        } else {
            RunBlockAccumulate(rows + begin * stride, offsets, block,
                               out + begin, scratch);
        }
    }
}

void
ForestKernel::Run(const float* rows, std::size_t num_rows,
                  std::size_t num_cols, float* out,
                  Scratch& scratch) const
{
    if (num_cols != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    RunStrided(rows, num_rows, num_cols, out, scratch);
}

void
ForestKernel::Run(const RowView& rows, float* out, Scratch& scratch) const
{
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    RunStrided(rows.data(), rows.rows(), rows.stride(), out, scratch);
}

std::vector<float>
ForestKernel::Predict(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) const
{
    if (num_cols != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    return Predict(RowView::Borrow(rows, num_rows, num_cols));
}

std::vector<float>
ForestKernel::Predict(const RowView& rows) const
{
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    const std::size_t num_rows = rows.rows();
    std::vector<float> out(num_rows);
    if (num_rows == 0) {
        return out;
    }
    // Wall-clock batch span; pooled chunk workers parent to it via the
    // captured context (chunks run on pool threads, not this one).
    // One span per batch + one per chunk (>= 4096 rows each), so the
    // cost stays far under the bench's 3% overhead budget.
    trace::ScopedSpan span(trace::StageKind::kKernel, "forest-kernel");
    span.AddAttr("rows", static_cast<double>(num_rows));
    span.AddAttr("trees", static_cast<double>(NumTrees()));
    const trace::SpanContext parent = span.context();
    auto worker = [&, parent](std::size_t begin, std::size_t end) {
        trace::ScopedSpan chunk(trace::StageKind::kKernel, "kernel-chunk",
                                parent);
        chunk.AddAttr("rows", static_cast<double>(end - begin));
        static thread_local Scratch scratch;
        RunStrided(rows.Row(begin), end - begin, rows.stride(),
                   out.data() + begin, scratch);
    };
    if (num_rows >= kParallelRowCutoff) {
        ThreadPool::Shared().ParallelForChunked(num_rows,
                                                kParallelRowCutoff, worker);
    } else {
        worker(0, num_rows);
    }
    return out;
}

}  // namespace dbscore

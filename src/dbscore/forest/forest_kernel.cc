#include "dbscore/forest/forest_kernel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>

#include "dbscore/common/error.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel_v2.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/kernel_autotune.h"
#include "dbscore/forest/simd.h"
#include "dbscore/trace/trace.h"

namespace dbscore {

namespace {

/**
 * Rows traversed concurrently per tree in the v1 scalar loop. Each
 * lane is an independent dependence chain of node loads, so the
 * out-of-order core keeps this many traversals in flight — the main
 * lever against the load latency that dominates pointer-chasing
 * inference. Compile-time so the lane state lives in registers.
 */
constexpr std::size_t kTraversalLanes = 16;

/**
 * Walks one tree for a group of kLanes rows, leaving each lane's final
 * (leaf) node index in @p n. Exactly @p depth branchless steps per
 * lane: leaves self-loop via {+inf, left = self}, so rows that bottom
 * out early spin in place from L1, and the level loop breaks once
 * every lane has parked. The step left + !(x <= t) matches the
 * reference "x <= t goes left, else (including NaN) right" bit for
 * bit.
 */
template <std::size_t kLanes, typename NodeT>
inline void
TraverseGroup(const NodeT* nodes, std::int32_t root, std::int32_t depth,
              const float* const* rowp, std::int32_t* n)
{
    for (std::size_t k = 0; k < kLanes; ++k) {
        n[k] = root;
    }
    for (std::int32_t d = 0; d < depth; ++d) {
        std::int32_t moved = 0;
        for (std::size_t k = 0; k < kLanes; ++k) {
            const NodeT nd = nodes[n[k]];
            const std::int32_t next =
                nd.left + static_cast<std::int32_t>(
                              !(rowp[k][nd.feature] <= nd.threshold));
            moved |= next ^ n[k];
            n[k] = next;
        }
        // All lanes parked on their self-looping leaves: the remaining
        // fixed-trip levels would be no-ops. Pays off on shallow
        // ensembles (IRIS) where the average path is much shorter than
        // the deepest one.
        if (moved == 0) {
            break;
        }
    }
}

bool
EnsembleSupported(const std::vector<DecisionTree>& trees,
                  std::size_t num_features)
{
    // Feature ids are stored as int16 in the compiled v1 pool and as a
    // 15-bit field in the packed v2 word.
    return !trees.empty() && num_features <= kV2MaxFeature;
}

}  // namespace

bool
ForestKernel::Supports(const RandomForest& forest)
{
    return EnsembleSupported(forest.trees(), forest.num_features());
}

bool
ForestKernel::Supports(const GradientBoostedModel& gbdt)
{
    return EnsembleSupported(gbdt.trees(), gbdt.num_features());
}

ForestKernel::ForestKernel(const RandomForest& forest,
                           const ForestKernelOptions& options)
    : task_(forest.task()),
      num_classes_(forest.num_classes()),
      num_features_(forest.num_features()),
      options_(options),
      combine_(forest.task() == Task::kClassification
                   ? KernelCombine::kVoteClassify
                   : KernelCombine::kMeanRegress)
{
    if (!Supports(forest)) {
        throw InvalidArgument("forest kernel: unsupported forest "
                              "(empty, or features exceed int16)");
    }
    Compile(forest.trees());
}

ForestKernel::ForestKernel(const GradientBoostedModel& gbdt,
                           const ForestKernelOptions& options)
    : task_(gbdt.task()),
      num_features_(gbdt.num_features()),
      options_(options),
      combine_(gbdt.task() == Task::kClassification
                   ? KernelCombine::kMarginClassify
                   : KernelCombine::kMargin),
      init_(gbdt.base_score()),
      scale_(gbdt.learning_rate())
{
    if (!Supports(gbdt)) {
        throw InvalidArgument("forest kernel: unsupported gbdt "
                              "(empty, or features exceed int16)");
    }
    // Margin kernels accumulate sums; the class decision happens in
    // the combiner, so no per-leaf class table is needed.
    num_classes_ = combine_ == KernelCombine::kMarginClassify ? 2 : 0;
    Compile(gbdt.trees());
}

ForestKernel::~ForestKernel() = default;

void
ForestKernel::Compile(const std::vector<DecisionTree>& trees)
{
    if (options_.row_block == 0 || options_.tile_node_budget == 0) {
        throw InvalidArgument("forest kernel: zero row_block/tile budget");
    }
    if (options_.mode == KernelMode::kQuantized &&
        options_.version == KernelVersion::kV1) {
        throw InvalidArgument("forest kernel: quantized mode needs v2");
    }

    // Attribute compilation (the serve path's model prewarming pays
    // this on registration, and mutation pays it again) to its own
    // trace stage; the autotuner emits a child span.
    const auto build_start = std::chrono::steady_clock::now();
    trace::ScopedSpan span(trace::StageKind::kKernelBuild, "kernel-build");
    span.AddAttr("trees", static_cast<double>(trees.size()));
    span.AddAttr("version",
                 options_.version == KernelVersion::kV2 ? 2.0 : 1.0);

    version_ = options_.version;
    mode_ = options_.mode;
    if (version_ == KernelVersion::kV2 &&
        !V2Supported(trees, num_features_)) {
        // Oversized trees cannot use tree-local left indices; the v1
        // layout handles them with absolute 32-bit children.
        version_ = KernelVersion::kV1;
        mode_ = KernelMode::kExact;
    }

    std::size_t total_nodes = 0;
    for (const auto& tree : trees) {
        total_nodes += tree.NumNodes();
    }
    span.AddAttr("nodes", static_cast<double>(total_nodes));

    const bool vote = combine_ == KernelCombine::kVoteClassify;
    roots_.reserve(trees.size());
    depths_.reserve(trees.size());
    value_.reserve(total_nodes);
    if (vote) {
        leaf_class_.reserve(total_nodes);
    }
    if (version_ == KernelVersion::kV1) {
        nodes_.reserve(total_nodes);
    } else {
        v2_ = std::make_unique<KernelV2Plan>();
        v2_->mode = mode_;
        if (mode_ == KernelMode::kQuantized) {
            v2_->InitQuantization(trees, num_features_);
        } else {
            v2_->enode.reserve(total_nodes);
        }
        v2_->tune_lo.assign(num_features_, 0.0f);
        v2_->tune_hi.assign(num_features_, 1.0f);
    }

    std::vector<std::int32_t> order;
    std::vector<std::int32_t> new_id;
    std::vector<bool> range_seen(num_features_, false);
    // Per-tree leaf-value range, feeding the threshold early-exit
    // suffix bounds (v1 accumulate combines only).
    std::vector<double> tree_leaf_lo;
    std::vector<double> tree_leaf_hi;
    tree_leaf_lo.reserve(trees.size());
    tree_leaf_hi.reserve(trees.size());
    for (const auto& tree : trees) {
        const auto base = static_cast<std::int32_t>(num_nodes_);
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
            const auto local =
                static_cast<std::int32_t>(num_nodes_) - base;
            if (tree.IsLeaf(node)) {
                const float value = tree.LeafValue(node);
                leaf_lo = std::min(leaf_lo, static_cast<double>(value));
                leaf_hi = std::max(leaf_hi, static_cast<double>(value));
                // {+inf, self, 0}: the branchless step re-evaluates
                // the leaf harmlessly (anything <= +inf stays at
                // left = self) until the fixed trip count runs out.
                if (version_ == KernelVersion::kV1) {
                    nodes_.push_back(
                        {std::numeric_limits<float>::infinity(),
                         base + local, 0});
                } else if (mode_ == KernelMode::kQuantized) {
                    v2_->qmeta.push_back(local);
                    v2_->qcut.push_back(kV2LeafCut);
                } else {
                    v2_->enode.push_back(V2PackExact(
                        std::numeric_limits<float>::infinity(), local));
                }
                value_.push_back(value);
                if (vote) {
                    const auto cls =
                        static_cast<std::int32_t>(std::lround(value));
                    DBS_ASSERT(cls >= 0 && cls < num_classes_);
                    leaf_class_.push_back(cls);
                }
            } else {
                const std::int32_t f = tree.Feature(node);
                DBS_ASSERT(f >= 0 &&
                           static_cast<std::size_t>(f) <= kV2MaxFeature);
                const std::int32_t left =
                    new_id[static_cast<std::size_t>(tree.Left(node))];
                DBS_ASSERT_MSG(
                    new_id[static_cast<std::size_t>(tree.Right(node))] ==
                        left + 1,
                    "forest kernel: BFS siblings must be adjacent");
                const float t = tree.Threshold(node);
                if (version_ == KernelVersion::kV1) {
                    nodes_.push_back(
                        {t, base + left, static_cast<std::int16_t>(f)});
                } else {
                    const std::int32_t packed =
                        (f << kV2LeftBits) | left;
                    if (mode_ == KernelMode::kQuantized) {
                        v2_->qmeta.push_back(packed);
                        v2_->qcut.push_back(v2_->CutFor(
                            static_cast<std::size_t>(f), t));
                    } else {
                        v2_->enode.push_back(V2PackExact(t, packed));
                    }
                    auto& lo = v2_->tune_lo[static_cast<std::size_t>(f)];
                    auto& hi = v2_->tune_hi[static_cast<std::size_t>(f)];
                    if (!range_seen[static_cast<std::size_t>(f)]) {
                        range_seen[static_cast<std::size_t>(f)] = true;
                        lo = hi = t;
                    } else {
                        lo = std::min(lo, t);
                        hi = std::max(hi, t);
                    }
                }
                value_.push_back(0.0f);
                if (vote) {
                    leaf_class_.push_back(0);
                }
            }
            ++num_nodes_;
        }
        tree_leaf_lo.push_back(leaf_lo);
        tree_leaf_hi.push_back(leaf_hi);
    }

    if (version_ == KernelVersion::kV1 &&
        combine_ != KernelCombine::kVoteClassify) {
        // Suffix bounds on the remaining-tree contribution: after t
        // trees the final sum lies in
        // [sum + suffix_min_[t], sum + suffix_max_[t]] up to rounding
        // (covered by the slack term at decision time).
        const std::size_t num_trees = trees.size();
        suffix_min_.assign(num_trees + 1, 0.0);
        suffix_max_.assign(num_trees + 1, 0.0);
        suffix_abs_.assign(num_trees + 1, 0.0);
        for (std::size_t t = num_trees; t-- > 0;) {
            const double a = scale_ * tree_leaf_lo[t];
            const double b = scale_ * tree_leaf_hi[t];
            const double clo = std::min(a, b);
            const double chi = std::max(a, b);
            suffix_min_[t] = suffix_min_[t + 1] + clo;
            suffix_max_[t] = suffix_max_[t + 1] + chi;
            suffix_abs_[t] =
                suffix_abs_[t + 1] + std::max(std::abs(clo), std::abs(chi));
        }
    }

    if (v2_) {
        if (mode_ == KernelMode::kQuantized) {
            // Pad for the shim's scale-2 u16 gather over-read.
            v2_->qcut.push_back(0);
        }
        v2_->row_block = options_.row_block;
        v2_->tile_node_budget = options_.tile_node_budget;
        AutotuneV2(*this, *v2_, options_);
        v2_->Retile(*this);
    } else {
        // Partition consecutive trees into tiles whose pooled nodes fit
        // the cache budget, so one tile stays resident while a row block
        // traverses it. A single oversized tree still gets its own tile.
        std::size_t tile_start = 0;
        std::size_t tile_nodes = 0;
        for (std::size_t t = 0; t < trees.size(); ++t) {
            const std::size_t nodes = trees[t].NumNodes();
            if (t > tile_start &&
                tile_nodes + nodes > options_.tile_node_budget) {
                tiles_.push_back({tile_start, t});
                tile_start = t;
                tile_nodes = 0;
            }
            tile_nodes += nodes;
        }
        tiles_.push_back({tile_start, trees.size()});
    }

    build_wall_ms_ = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - build_start)
                         .count();
}

std::size_t
ForestKernel::NumTiles() const
{
    return v2_ ? v2_->tiles.size() : tiles_.size();
}

bool
ForestKernel::simd_active() const
{
    return v2_ != nullptr && v2_->use_simd;
}

const char*
ForestKernel::SimdBackend()
{
    return simd::BackendName();
}

std::size_t
ForestKernel::simd_groups() const
{
    return simd_active() ? v2_->groups : 0;
}

std::size_t
ForestKernel::tuned_lane_rows() const
{
    return v2_ ? v2_->GroupRows() : kTraversalLanes;
}

std::size_t
ForestKernel::tuned_row_block() const
{
    return v2_ ? v2_->row_block : options_.row_block;
}

std::size_t
ForestKernel::tuned_tile_node_budget() const
{
    return v2_ ? v2_->tile_node_budget : options_.tile_node_budget;
}

bool
ForestKernel::autotuned() const
{
    return v2_ != nullptr && v2_->autotuned;
}

bool
ForestKernel::quant_exact() const
{
    return v2_ != nullptr && mode_ == KernelMode::kQuantized &&
           v2_->quant_exact;
}

std::size_t
ForestKernel::quant_max_bins() const
{
    return v2_ ? v2_->max_bins : 0;
}

void
ForestKernel::FinishSums(const double* sums, std::size_t num_rows,
                         float* out) const
{
    switch (combine_) {
    case KernelCombine::kMeanRegress: {
        const auto trees = static_cast<double>(roots_.size());
        for (std::size_t i = 0; i < num_rows; ++i) {
            out[i] = static_cast<float>(sums[i] / trees);
        }
        break;
    }
    case KernelCombine::kMargin:
        for (std::size_t i = 0; i < num_rows; ++i) {
            out[i] = static_cast<float>(sums[i]);
        }
        break;
    case KernelCombine::kMarginClassify:
        for (std::size_t i = 0; i < num_rows; ++i) {
            out[i] = static_cast<float>(GradientBoostedModel::MarginToClass(
                static_cast<float>(sums[i])));
        }
        break;
    case KernelCombine::kVoteClassify:
        DBS_ASSERT_MSG(false, "vote kernels do not accumulate sums");
        break;
    }
}

float
ForestKernel::FinishOne(double sum) const
{
    // Must mirror FinishSums exactly: the threshold path's full-finish
    // rows are bit-identical to a Predict() of the same row. Every
    // branch is monotone non-decreasing in the sum (float cast and
    // division by a positive count are correctly rounded; the sigmoid
    // + 0.5 threshold in MarginToClass is monotone), which is what
    // lets interval endpoints decide the predicate.
    switch (combine_) {
    case KernelCombine::kMeanRegress:
        return static_cast<float>(sum /
                                  static_cast<double>(roots_.size()));
    case KernelCombine::kMargin:
        return static_cast<float>(sum);
    case KernelCombine::kMarginClassify:
        return static_cast<float>(GradientBoostedModel::MarginToClass(
            static_cast<float>(sum)));
    case KernelCombine::kVoteClassify:
        break;
    }
    DBS_ASSERT_MSG(false, "vote kernels do not accumulate sums");
    return 0.0f;
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

namespace {

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

/** Trees accumulated between two early-exit decision points. */
constexpr std::size_t kThresholdCheckTrees = 8;

}  // namespace

bool
ForestKernel::SupportsThresholdEarlyExit() const
{
    return v2_ == nullptr && combine_ != KernelCombine::kVoteClassify &&
           !suffix_min_.empty();
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
    if (scratch.sums.size() < num_rows) {
        scratch.sums.resize(num_rows);
    }
    if (scratch.active.size() < num_rows) {
        scratch.active.resize(num_rows);
    }
    double* const sums = scratch.sums.data();
    std::int32_t* const active = scratch.active.data();
    for (std::size_t i = 0; i < num_rows; ++i) {
        sums[i] = init_;
        active[i] = static_cast<std::int32_t>(i);
    }
    std::size_t live = num_rows;

    const Node* const nodes = nodes_.data();
    const float* const val = value_.data();
    const double scale = scale_;

    std::size_t t0 = 0;
    while (live > 0 && t0 < num_trees) {
        const std::size_t t1 =
            std::min(num_trees, t0 + kThresholdCheckTrees);
        // Accumulate trees [t0, t1) over the surviving rows, in the
        // same 16-lane groups as RunBlockAccumulate — tree order per
        // row is preserved, so a row that survives to the end carries
        // exactly the sum the full pass would have computed.
        std::size_t r = 0;
        for (; r + kTraversalLanes <= live; r += kTraversalLanes) {
            const float* rowp[kTraversalLanes];
            for (std::size_t k = 0; k < kTraversalLanes; ++k) {
                rowp[k] =
                    rows + static_cast<std::size_t>(active[r + k]) * stride;
            }
            for (std::size_t t = t0; t < t1; ++t) {
                std::int32_t n[kTraversalLanes];
                TraverseGroup<kTraversalLanes>(
                    nodes, roots_[t], depths_[t], rowp, n);
                for (std::size_t k = 0; k < kTraversalLanes; ++k) {
                    sums[r + k] += scale * val[n[k]];
                }
            }
        }
        for (; r < live; ++r) {
            const float* rowp[1] = {
                rows + static_cast<std::size_t>(active[r]) * stride};
            for (std::size_t t = t0; t < t1; ++t) {
                std::int32_t n[1];
                TraverseGroup<1>(nodes, roots_[t], depths_[t], rowp, n);
                sums[r] += scale * val[n[0]];
            }
        }
        stats.tree_traversals += live * (t1 - t0);
        t0 = t1;
        if (t0 >= num_trees) {
            break;
        }

        // Decision point: bound the final sum and keep only rows whose
        // interval still straddles the threshold. The slack term
        // over-covers the rounding of both the remaining double
        // accumulation (gamma_k <= k * 2^-52 per unit magnitude) and
        // the suffix sums themselves.
        const double remaining = static_cast<double>(num_trees - t0);
        std::size_t w = 0;
        std::uint64_t decided = 0;
        for (std::size_t i = 0; i < live; ++i) {
            const double s = sums[i];
            const double slack = 1e-15 * (remaining + 4.0) *
                                 (std::abs(s) + suffix_abs_[t0]);
            const float glo = FinishOne(s + suffix_min_[t0] - slack);
            const float ghi = FinishOne(s + suffix_max_[t0] + slack);
            const int dec = DecideThreshold(op, threshold, glo, ghi);
            if (dec >= 0) {
                keep[active[i]] = static_cast<std::uint8_t>(dec);
                ++decided;
            } else {
                active[w] = active[i];
                sums[w] = s;
                ++w;
            }
        }
        stats.rows_decided_early += decided;
        live = w;
    }

    // Rows that ran every tree finish exactly like FinishSums.
    for (std::size_t i = 0; i < live; ++i) {
        keep[active[i]] = ThresholdHolds(op, threshold, FinishOne(sums[i]))
                              ? std::uint8_t{1}
                              : std::uint8_t{0};
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
        // v2 plans and vote combiners: score fully, then compare.
        // Exact, just without the skipped-tree savings.
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
    if (num_rows >= options_.parallel_grain) {
        ThreadPool::Shared().ParallelForChunked(
            num_rows, options_.parallel_grain, worker);
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
ForestKernel::RunBlockClassify(const float* rows, std::size_t num_rows,
                               std::size_t stride, float* out,
                               Scratch& scratch) const
{
    const Node* const nodes = nodes_.data();
    const auto num_classes = static_cast<std::size_t>(num_classes_);
    const std::int32_t* const cls = leaf_class_.data();
    std::int32_t* const counts = scratch.counts.data();
    std::fill(counts, counts + num_rows * num_classes, 0);

    // Row-group outer, trees inner: row pointers are computed once per
    // group and the group's feature rows stay hot in L1 across every
    // tree, while a tile's nodes stay cache-resident across groups.
    std::size_t r = 0;
    for (; r + kTraversalLanes <= num_rows; r += kTraversalLanes) {
        const float* rowp[kTraversalLanes];
        for (std::size_t k = 0; k < kTraversalLanes; ++k) {
            rowp[k] = rows + (r + k) * stride;
        }
        for (const TreeTile& tile : tiles_) {
            for (std::size_t t = tile.first_tree; t < tile.end_tree;
                 ++t) {
                std::int32_t n[kTraversalLanes];
                TraverseGroup<kTraversalLanes>(nodes, roots_[t],
                                               depths_[t], rowp, n);
                for (std::size_t k = 0; k < kTraversalLanes; ++k) {
                    ++counts[(r + k) * num_classes +
                             static_cast<std::size_t>(cls[n[k]])];
                }
            }
        }
    }
    for (; r < num_rows; ++r) {
        const float* rowp[1] = {rows + r * stride};
        for (const TreeTile& tile : tiles_) {
            for (std::size_t t = tile.first_tree; t < tile.end_tree;
                 ++t) {
                std::int32_t n[1];
                TraverseGroup<1>(nodes, roots_[t], depths_[t], rowp, n);
                ++counts[r * num_classes +
                         static_cast<std::size_t>(cls[n[0]])];
            }
        }
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
ForestKernel::RunBlockAccumulate(const float* rows, std::size_t num_rows,
                                 std::size_t stride, float* out,
                                 Scratch& scratch) const
{
    const Node* const nodes = nodes_.data();
    const float* const val = value_.data();
    const double scale = scale_;
    double* const sums = scratch.sums.data();
    std::fill(sums, sums + num_rows, init_);

    // Trees iterate in ensemble order for every row (tiles cover
    // consecutive trees), so each row's double sum accumulates in the
    // reference order and the mean/margin is bit-identical to the
    // scalar path.
    std::size_t r = 0;
    for (; r + kTraversalLanes <= num_rows; r += kTraversalLanes) {
        const float* rowp[kTraversalLanes];
        for (std::size_t k = 0; k < kTraversalLanes; ++k) {
            rowp[k] = rows + (r + k) * stride;
        }
        for (const TreeTile& tile : tiles_) {
            for (std::size_t t = tile.first_tree; t < tile.end_tree;
                 ++t) {
                std::int32_t n[kTraversalLanes];
                TraverseGroup<kTraversalLanes>(nodes, roots_[t],
                                               depths_[t], rowp, n);
                for (std::size_t k = 0; k < kTraversalLanes; ++k) {
                    sums[r + k] += scale * val[n[k]];
                }
            }
        }
    }
    for (; r < num_rows; ++r) {
        const float* rowp[1] = {rows + r * stride};
        for (const TreeTile& tile : tiles_) {
            for (std::size_t t = tile.first_tree; t < tile.end_tree;
                 ++t) {
                std::int32_t n[1];
                TraverseGroup<1>(nodes, roots_[t], depths_[t], rowp, n);
                sums[r] += scale * val[n[0]];
            }
        }
    }
    FinishSums(sums, num_rows, out);
}

void
ForestKernel::RunStrided(const float* rows, std::size_t num_rows,
                         std::size_t stride, float* out,
                         Scratch& scratch) const
{
    if (num_rows == 0) {
        return;
    }
    if (v2_) {
        v2_->RunStrided(*this, rows, num_rows, stride, out, scratch);
        return;
    }
    if (combine_ == KernelCombine::kVoteClassify) {
        const std::size_t need =
            options_.row_block * static_cast<std::size_t>(num_classes_);
        if (scratch.counts.size() < need) {
            scratch.counts.resize(need);
        }
    } else if (scratch.sums.size() < options_.row_block) {
        scratch.sums.resize(options_.row_block);
    }

    for (std::size_t begin = 0; begin < num_rows;
         begin += options_.row_block) {
        const std::size_t block =
            std::min(options_.row_block, num_rows - begin);
        if (combine_ == KernelCombine::kVoteClassify) {
            RunBlockClassify(rows + begin * stride, block, stride,
                             out + begin, scratch);
        } else {
            RunBlockAccumulate(rows + begin * stride, block, stride,
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
    if (num_rows >= options_.parallel_grain) {
        ThreadPool::Shared().ParallelForChunked(
            num_rows, options_.parallel_grain, worker);
    } else {
        worker(0, num_rows);
    }
    return out;
}

}  // namespace dbscore

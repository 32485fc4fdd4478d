#include "dbscore/engines/gpu/hummingbird_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/data/row_block.h"
#include "dbscore/forest/forest.h"

namespace dbscore {

namespace {

/** Per-record framework conversion cost (DataFrame -> device tensor). */
constexpr double kPreprocPerValueNs = 0.2;

/** DRAM line size used by the row-value gather coalescing model. */
constexpr double kLineBytes = 128.0;

/** Output columns of the compiled program: classes, or 1 (regression). */
int
NumOutputs(const RandomForest& forest)
{
    return forest.task() == Task::kClassification ? forest.num_classes() : 1;
}

}  // namespace

/**
 * Hummingbird's cost model for one model: the strategy kAuto picks and
 * each tree's shape, from which the compiled tensors' sizes, the tensor
 * width and the op ledger all follow without compiling anything.
 */
class HbCostCard final : public CostCard {
 public:
    HbCostCard(const GpuDeviceModel& device, const HummingbirdParams& params,
               const RandomForest& forest, const ModelStats& stats);

    OffloadBreakdown Estimate(std::size_t num_rows) const override;

    /** The analytic op ledger of scoring @p num_rows rows. */
    CostLedger Ledger(std::size_t num_rows) const;

    HbStrategy strategy() const { return strategy_; }

 private:
    struct TreeShape {
        std::size_t internal = 0;
        std::size_t leaves = 0;
        std::size_t depth = 0;
    };

    GpuDeviceModel device_;
    HummingbirdParams params_;
    ModelStats stats_;
    int num_outputs_;
    std::vector<TreeShape> trees_;
    HbStrategy strategy_ = HbStrategy::kGemm;
    /** Bytes of the compiled model tensors shipped to the device. */
    std::uint64_t model_bytes_ = 0;
    /** Tensor minor width for gather coalescing. */
    std::size_t width_ = 0;
};

HbCostCard::HbCostCard(const GpuDeviceModel& device,
                       const HummingbirdParams& params,
                       const RandomForest& forest, const ModelStats& stats)
    : device_(device),
      params_(params),
      stats_(stats),
      num_outputs_(NumOutputs(forest))
{
    std::size_t max_internal = 0;
    trees_.reserve(forest.NumTrees());
    for (const auto& tree : forest.trees()) {
        const TreeShape shape{tree.NumNodes() - tree.NumLeaves(),
                              tree.NumLeaves(), tree.Depth()};
        max_internal = std::max(max_internal, shape.internal);
        trees_.push_back(shape);
    }

    strategy_ = params_.strategy;
    if (strategy_ == HbStrategy::kAuto) {
        strategy_ = max_internal <= params_.gemm_max_internal_nodes
            ? HbStrategy::kGemm
            : HbStrategy::kPerfectTreeTraversal;
    }

    // Sized exactly as CompileGemm / CompilePerfect lay the tensors out.
    const std::uint64_t outputs = static_cast<std::uint64_t>(num_outputs_);
    std::size_t internal_total = 0;
    for (const TreeShape& t : trees_) {
        if (strategy_ == HbStrategy::kGemm) {
            // features and B (1 x I), C (I x L), D (1 x L), E (L x O).
            model_bytes_ += t.internal * 4 + t.internal * 4 +
                            t.internal * t.leaves * 4 + t.leaves * 4 +
                            t.leaves * outputs * 4;
        } else {
            // Heap-ordered features and thresholds, 2^D leaf values.
            // Past depth 60 the bytes overflow 64 bits (and any device),
            // so the size saturates: the estimate stays finite and
            // never wins placement.
            constexpr std::uint64_t kMax =
                std::numeric_limits<std::uint64_t>::max();
            std::uint64_t tree_bytes = kMax;
            if (t.depth < 60) {
                const std::uint64_t leaf_slots = std::uint64_t{1} << t.depth;
                tree_bytes = (leaf_slots - 1) * 4 + (leaf_slots - 1) * 4 +
                             leaf_slots * 4;
            }
            model_bytes_ = tree_bytes > kMax - model_bytes_
                               ? kMax
                               : model_bytes_ + tree_bytes;
        }
        internal_total += t.internal;
    }
    width_ = strategy_ == HbStrategy::kGemm
        ? std::max<std::size_t>(1, internal_total)
        : stats_.num_trees;
}

HummingbirdGpuEngine::HummingbirdGpuEngine(const GpuDeviceModel& device,
                                           const HummingbirdParams& params)
    : device_(device), params_(params)
{
}

const HbCostCard&
HummingbirdGpuEngine::Card() const
{
    return static_cast<const HbCostCard&>(card());
}

HbStrategy
HummingbirdGpuEngine::ChosenStrategy() const
{
    return Card().strategy();
}

std::unique_ptr<const CostCard>
HummingbirdGpuEngine::MakeCostCard(const RandomForest& forest,
                                   const ModelStats& stats) const
{
    return std::make_unique<HbCostCard>(device_, params_, forest, stats);
}

void
HummingbirdGpuEngine::LoadModel(const TreeEnsemble& model,
                                const ModelStats& stats)
{
    RandomForest forest = model.ToForest();
    set_card(MakeCostCard(forest, stats));
    num_features_ = stats.num_features;
    num_outputs_ = NumOutputs(forest);

    gemm_trees_.clear();
    perfect_trees_.clear();
    if (Card().strategy() == HbStrategy::kGemm) {
        CompileGemm(forest);
    } else {
        CompilePerfect(forest);
    }
}

void
HummingbirdGpuEngine::CompileGemm(const RandomForest& forest)
{
    for (const auto& tree : forest.trees()) {
        GemmCompiledTree ct;

        // Assign dense indices to internal nodes and leaves (preorder).
        const std::size_t n = tree.NumNodes();
        std::vector<std::int32_t> internal_index(n, -1);
        std::vector<std::int32_t> leaf_index(n, -1);
        std::int32_t num_internal = 0;
        std::int32_t num_leaves = 0;
        for (std::size_t i = 0; i < n; ++i) {
            auto node = static_cast<std::int32_t>(i);
            if (tree.IsLeaf(node)) {
                leaf_index[i] = num_leaves++;
            } else {
                internal_index[i] = num_internal++;
            }
        }

        ct.features.resize(static_cast<std::size_t>(num_internal));
        ct.thresholds = Matrix(1, static_cast<std::size_t>(num_internal));
        for (std::size_t i = 0; i < n; ++i) {
            if (internal_index[i] >= 0) {
                auto idx = static_cast<std::size_t>(internal_index[i]);
                ct.features[idx] =
                    tree.Feature(static_cast<std::int32_t>(i));
                ct.thresholds.At(0, idx) =
                    tree.Threshold(static_cast<std::int32_t>(i));
            }
        }

        // Path matrix C and left-edge counts D via DFS carrying the
        // ancestor set with directions.
        ct.path_matrix = Matrix(static_cast<std::size_t>(num_internal),
                                static_cast<std::size_t>(num_leaves));
        ct.left_counts = Matrix(1, static_cast<std::size_t>(num_leaves));
        ct.leaf_map = Matrix(static_cast<std::size_t>(num_leaves),
                             static_cast<std::size_t>(num_outputs_));

        struct Frame {
            std::int32_t node;
            std::vector<std::pair<std::int32_t, bool>> ancestors;
        };
        std::vector<Frame> stack;
        stack.push_back({0, {}});
        while (!stack.empty()) {
            Frame frame = std::move(stack.back());
            stack.pop_back();
            if (tree.IsLeaf(frame.node)) {
                auto l = static_cast<std::size_t>(
                    leaf_index[static_cast<std::size_t>(frame.node)]);
                std::size_t lefts = 0;
                for (auto [anc, went_left] : frame.ancestors) {
                    ct.path_matrix.At(static_cast<std::size_t>(anc), l) =
                        went_left ? 1.0f : -1.0f;
                    if (went_left) {
                        ++lefts;
                    }
                }
                ct.left_counts.At(0, l) = static_cast<float>(lefts);
                float value = tree.LeafValue(frame.node);
                if (num_outputs_ > 1) {
                    auto cls = static_cast<std::size_t>(std::lround(value));
                    DBS_ASSERT(cls <
                               static_cast<std::size_t>(num_outputs_));
                    ct.leaf_map.At(l, cls) = 1.0f;
                } else {
                    ct.leaf_map.At(l, 0) = value;
                }
                continue;
            }
            auto i = internal_index[static_cast<std::size_t>(frame.node)];
            Frame left{tree.Left(frame.node), frame.ancestors};
            left.ancestors.emplace_back(i, true);
            Frame right{tree.Right(frame.node), std::move(frame.ancestors)};
            right.ancestors.emplace_back(i, false);
            stack.push_back(std::move(left));
            stack.push_back(std::move(right));
        }
        gemm_trees_.push_back(std::move(ct));
    }
}

namespace {

/** Recursively fills perfect-tree arrays; node < 0 means "carry a value". */
void
FillPerfectSlot(const DecisionTree& tree, std::int32_t node, float carried,
                std::size_t slot, std::size_t level, std::size_t depth,
                PerfectCompiledTree& out)
{
    const std::size_t first_leaf_slot = (std::size_t{1} << depth) - 1;
    if (level == depth) {
        float value = carried;
        if (node >= 0) {
            DBS_ASSERT_MSG(tree.IsLeaf(node),
                           "tree deeper than its padded depth");
            value = tree.LeafValue(node);
        }
        out.leaf_values[slot - first_leaf_slot] = value;
        return;
    }
    if (node >= 0 && !tree.IsLeaf(node)) {
        out.features[slot] = tree.Feature(node);
        out.thresholds[slot] = tree.Threshold(node);
        FillPerfectSlot(tree, tree.Left(node), 0.0f, 2 * slot + 1,
                        level + 1, depth, out);
        FillPerfectSlot(tree, tree.Right(node), 0.0f, 2 * slot + 2,
                        level + 1, depth, out);
        return;
    }
    // A leaf above the padded depth: pass-through slot (always goes
    // left); replicate the value down both sides so every leaf slot is
    // initialized.
    float value = node >= 0 ? tree.LeafValue(node) : carried;
    out.features[slot] = -1;
    out.thresholds[slot] = 0.0f;
    FillPerfectSlot(tree, -1, value, 2 * slot + 1, level + 1, depth, out);
    FillPerfectSlot(tree, -1, value, 2 * slot + 2, level + 1, depth, out);
}

}  // namespace

void
HummingbirdGpuEngine::CompilePerfect(const RandomForest& forest)
{
    // A depth-D layout holds 2^D - 1 features and thresholds and 2^D
    // leaf values, about 12 * 2^D bytes: past depth 30 one tree's
    // layout (24 GiB at depth 31) outgrows the paper's 16 GB P100, and
    // at depth 64 the slot count would shift past the word.
    constexpr std::size_t kMaxPerfectDepth = 30;
    for (const auto& tree : forest.trees()) {
        if (tree.Depth() > kMaxPerfectDepth) {
            throw CapacityError(StrFormat(
                "hummingbird: a depth-%zu tree has no perfect-tree layout "
                "(at most depth %zu)",
                tree.Depth(), kMaxPerfectDepth));
        }
    }
    for (const auto& tree : forest.trees()) {
        PerfectCompiledTree ct;
        ct.depth = tree.Depth();
        const std::size_t internal_slots =
            (std::size_t{1} << ct.depth) - 1;
        ct.features.assign(internal_slots, -1);
        ct.thresholds.assign(internal_slots, 0.0f);
        ct.leaf_values.assign(std::size_t{1} << ct.depth, 0.0f);
        FillPerfectSlot(tree, 0, 0.0f, 0, 0, ct.depth, ct);
        perfect_trees_.push_back(std::move(ct));
    }
}

std::vector<float>
HummingbirdGpuEngine::ScoreGemm(const float* rows, std::size_t num_rows,
                                CostLedger* ledger) const
{
    // Adopt the caller's buffer in place — the feature matrix enters
    // the tensor pipeline without a host copy.
    Matrix x = Matrix::FromView(
        RowView::Borrow(rows, num_rows, num_features_));
    Matrix acc(num_rows, static_cast<std::size_t>(num_outputs_));

    for (const auto& ct : gemm_trees_) {
        if (ct.features.empty()) {
            // Degenerate single-leaf tree: constant contribution.
            for (std::size_t r = 0; r < num_rows; ++r) {
                for (int o = 0; o < num_outputs_; ++o) {
                    acc.At(r, static_cast<std::size_t>(o)) +=
                        ct.leaf_map.At(0, static_cast<std::size_t>(o));
                }
            }
            continue;
        }
        Matrix s = GatherColumns(x, ct.features, ledger);
        Matrix t = LessEqualRow(s, ct.thresholds, ledger);
        Matrix u = MatMul(t, ct.path_matrix, ledger);
        Matrix h = EqualsRow(u, ct.left_counts, ledger);
        Matrix r = MatMul(h, ct.leaf_map, ledger);
        acc = Add(acc, r, ledger);
    }

    std::vector<float> preds(num_rows);
    if (num_outputs_ > 1) {
        std::vector<std::int32_t> arg = ArgMaxRows(acc, ledger);
        for (std::size_t i = 0; i < num_rows; ++i) {
            preds[i] = static_cast<float>(arg[i]);
        }
    } else {
        Matrix scaled = Scale(
            acc, 1.0f / static_cast<float>(gemm_trees_.size()), ledger);
        for (std::size_t i = 0; i < num_rows; ++i) {
            preds[i] = scaled.At(i, 0);
        }
    }
    return preds;
}

std::vector<float>
HummingbirdGpuEngine::ScorePerfect(const float* rows,
                                   std::size_t num_rows) const
{
    std::vector<float> preds(num_rows);
    const std::size_t cols = num_features_;
    const bool classify = num_outputs_ > 1;

    auto worker = [&](std::size_t begin, std::size_t end) {
        std::vector<int> votes;
        for (std::size_t r = begin; r < end; ++r) {
            const float* row = rows + r * cols;
            votes.clear();
            double sum = 0.0;
            for (const auto& ct : perfect_trees_) {
                std::size_t idx = 0;
                for (std::size_t level = 0; level < ct.depth; ++level) {
                    std::int32_t f = ct.features[idx];
                    bool left = f < 0 || row[f] <= ct.thresholds[idx];
                    idx = 2 * idx + (left ? 1 : 2);
                }
                const std::size_t first_leaf =
                    (std::size_t{1} << ct.depth) - 1;
                float value = ct.leaf_values[idx - first_leaf];
                if (classify) {
                    votes.push_back(static_cast<int>(std::lround(value)));
                } else {
                    sum += value;
                }
            }
            preds[r] = classify
                ? static_cast<float>(MajorityVote(votes, num_outputs_))
                : static_cast<float>(
                      sum / static_cast<double>(perfect_trees_.size()));
        }
    };
    if (num_rows >= kParallelRowCutoff) {
        ThreadPool::Shared().ParallelForChunked(num_rows, worker);
    } else {
        worker(0, num_rows);
    }
    return preds;
}

CostLedger
HbCostCard::Ledger(std::size_t num_rows) const
{
    CostLedger ledger;
    const double n = static_cast<double>(num_rows);
    const double trees = static_cast<double>(stats_.num_trees);
    const double row_bytes =
        static_cast<double>(stats_.num_features) * sizeof(float);

    if (strategy_ == HbStrategy::kGemm) {
        // Batched over all trees: 6 fused kernels regardless of tree
        // count; flops/bytes are the per-tree sums (they match what a
        // functional per-tree run records — tested).
        OpCost gather;
        OpCost compare;
        OpCost gemm;
        OpCost elementwise;
        for (const TreeShape& t : trees_) {
            if (t.internal == 0) {
                continue;
            }
            const double i = static_cast<double>(t.internal);
            const double l = static_cast<double>(t.leaves);
            const double o = static_cast<double>(num_outputs_);
            gather.bytes_read += static_cast<std::uint64_t>(
                n * i * 4 + i * 4);
            gather.bytes_written += static_cast<std::uint64_t>(n * i * 4);
            // LessEqualRow then EqualsRow.
            compare.flops += static_cast<std::uint64_t>(n * i + n * l);
            compare.bytes_read += static_cast<std::uint64_t>(
                (n * i * 4 + i * 4) + (n * l * 4 + l * 4));
            compare.bytes_written +=
                static_cast<std::uint64_t>(n * i * 4 + n * l * 4);
            // T x C and H x E.
            gemm.flops += static_cast<std::uint64_t>(
                2.0 * n * i * l + 2.0 * n * l * o);
            gemm.bytes_read += static_cast<std::uint64_t>(
                (n * i + i * l) * 4 + (n * l + l * o) * 4);
            gemm.bytes_written +=
                static_cast<std::uint64_t>(n * l * 4 + n * o * 4);
            // Accumulator add.
            elementwise.flops += static_cast<std::uint64_t>(
                n * o);
            elementwise.bytes_read +=
                static_cast<std::uint64_t>(2 * n * o * 4);
            elementwise.bytes_written +=
                static_cast<std::uint64_t>(n * o * 4);
        }
        gather.invocations = 1;
        compare.invocations = 2;
        gemm.invocations = 2;
        elementwise.invocations = 1;
        ledger.Record(OpKind::kGather, gather);
        ledger.Record(OpKind::kCompare, compare);
        ledger.Record(OpKind::kGemm, gemm);
        ledger.Record(OpKind::kElementwise, elementwise);

        const double o = static_cast<double>(num_outputs_);
        if (num_outputs_ > 1) {
            ledger.Record(OpKind::kReduce,
                          OpCost{static_cast<std::uint64_t>(n * o),
                                 static_cast<std::uint64_t>(n * o * 4),
                                 static_cast<std::uint64_t>(n * 4), 1});
        } else {
            ledger.Record(OpKind::kElementwise,
                          OpCost{static_cast<std::uint64_t>(n * o),
                                 static_cast<std::uint64_t>(n * o * 4),
                                 static_cast<std::uint64_t>(n * o * 4), 1});
        }
        return ledger;
    }

    // PerfectTreeTraversal: level-synchronous kernels over (rows x trees)
    // index tensors.
    std::size_t depth = 0;
    for (const TreeShape& t : trees_) {
        depth = std::max(depth, t.depth);
    }
    const double steps = n * trees * static_cast<double>(depth);

    // Row-value gather: warp lanes cover min(32, trees) trees of one row.
    // With many trees a warp shares one row and the cache line amortizes
    // to ~4 useful bytes/lane; with one tree every lane touches a
    // different row and pulls a whole line.
    const double lanes_per_row =
        std::min<double>(32.0, std::max(1.0, trees));
    const double gather_bytes_per_step =
        std::max(4.0, std::min(kLineBytes, row_bytes * lanes_per_row) /
                          lanes_per_row);
    ledger.Record(
        OpKind::kGather,
        OpCost{0,
               static_cast<std::uint64_t>(steps * gather_bytes_per_step),
               static_cast<std::uint64_t>(steps * 4),
               static_cast<std::uint64_t>(depth)});
    // Threshold compare per step.
    ledger.Record(OpKind::kCompare,
                  OpCost{static_cast<std::uint64_t>(steps),
                         static_cast<std::uint64_t>(steps * 8),
                         static_cast<std::uint64_t>(steps * 4),
                         static_cast<std::uint64_t>(depth)});
    // Index arithmetic and intermediate tensors (2 ops per level).
    ledger.Record(OpKind::kElementwise,
                  OpCost{static_cast<std::uint64_t>(steps),
                         static_cast<std::uint64_t>(steps * 24),
                         static_cast<std::uint64_t>(steps * 12),
                         static_cast<std::uint64_t>(2 * depth)});
    // Leaf-value gather.
    ledger.Record(OpKind::kGather,
                  OpCost{0, static_cast<std::uint64_t>(n * trees * 8),
                         static_cast<std::uint64_t>(n * trees * 4), 1});
    // Vote/average reduction across trees.
    ledger.Record(OpKind::kReduce,
                  OpCost{static_cast<std::uint64_t>(n * trees),
                         static_cast<std::uint64_t>(n * trees * 4),
                         static_cast<std::uint64_t>(n * 4), 1});
    return ledger;
}

OffloadBreakdown
HbCostCard::Estimate(std::size_t num_rows) const
{
    const double n = static_cast<double>(num_rows);
    const std::uint64_t data_bytes =
        static_cast<std::uint64_t>(num_rows) * stats_.num_features *
        sizeof(float);

    OffloadBreakdown b;
    b.preprocessing = SimTime::Nanos(
        kPreprocPerValueNs * n *
        static_cast<double>(stats_.num_features));
    b.input_transfer = device_.HostToDevice(data_bytes) +
                       device_.HostToDevice(model_bytes_);
    b.setup = device_.spec().kernel_launch;
    b.compute = device_.LedgerTime(Ledger(num_rows), width_);
    b.completion_signal = device_.spec().sync_latency;
    b.result_transfer = device_.DeviceToHost(
        static_cast<std::uint64_t>(num_rows) * sizeof(float));
    b.software_overhead = params_.software_overhead;
    return b;
}

CostLedger
HummingbirdGpuEngine::LedgerFor(std::size_t num_rows) const
{
    return Card().Ledger(num_rows);
}

ScoreResult
HummingbirdGpuEngine::Score(const float* rows, std::size_t num_rows,
                            std::size_t num_cols)
{
    RequireLoaded();
    if (num_cols != num_features_) {
        throw InvalidArgument(Name() + ": row arity mismatch");
    }
    ScoreResult result;
    // Tensor-data DMA in, compiled-program launch, result DMA out.
    device_.CheckDmaFault();
    device_.CheckKernelLaunchFault();
    if (Card().strategy() == HbStrategy::kGemm) {
        result.predictions = ScoreGemm(rows, num_rows, nullptr);
    } else {
        result.predictions = ScorePerfect(rows, num_rows);
    }
    device_.CheckDmaFault();
    result.breakdown = Estimate(num_rows);
    TraceOffloadStages(result.breakdown);
    return result;
}

}  // namespace dbscore

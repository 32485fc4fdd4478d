/**
 * @file
 * Tests for dbscore/forest/forest_kernel — the compiled, cache-blocked
 * batch inference plan.
 *
 * The contract under test: kernel predictions are bit-identical to the
 * scalar reference path (per-row Predict) across task type, dataset
 * shape, ensemble size, depth, and ragged batch sizes on both sides of
 * the row-count rule (64-row vector groups, 16-lane scalar groups, the
 * one-row tail); PredictThreshold agrees with comparing Predict()
 * output under every operator, ties included, while deciding rows
 * early; the cached kernel is reused until the model mutates and
 * rebuilt afterwards; models the packed node word cannot hold take the
 * reference path; and the caller-owned scratch makes repeated runs
 * allocation-free without changing results.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/dbms/sql.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

namespace dbscore {
namespace {

/** Scalar ground truth: per-row Predict, no kernel involved. */
template <typename Model>
std::vector<float>
Reference(const Model& model, const float* rows, std::size_t num_rows,
          std::size_t num_cols)
{
    std::vector<float> out(num_rows);
    for (std::size_t i = 0; i < num_rows; ++i) {
        out[i] = model.Predict(rows + i * num_cols);
    }
    return out;
}

RandomForest
TrainSmallIris(std::size_t trees, std::size_t depth, std::uint64_t seed)
{
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = seed;
    return TrainForest(MakeIris(200, seed), config);
}

/** Row counts on both sides of every loop boundary of the kernel. */
const std::vector<std::size_t>&
EdgeRowCounts()
{
    static const std::vector<std::size_t> counts = {
        0, 1, 15, 16, 17, 47, 48, 63, 64, 65, 4097};
    return counts;
}

/** @p rows copied into a block two columns wider: a strided view. */
struct WideCopy {
    std::vector<float> data;
    std::size_t stride;

    WideCopy(const float* rows, std::size_t num_rows, std::size_t cols)
        : data(num_rows * (cols + 2), -7.0f), stride(cols + 2)
    {
        for (std::size_t i = 0; i < num_rows; ++i) {
            std::copy(rows + i * cols, rows + (i + 1) * cols,
                      data.begin() + static_cast<long>(i * stride));
        }
    }

    RowView View(std::size_t num_rows, std::size_t cols) const
    {
        return RowView::Borrow(data.data(), num_rows, cols, stride);
    }
};

/**
 * A complete tree of @p depth levels over @p num_features features
 * with deterministic thresholds and class-id leaves (2^(depth+1) - 1
 * nodes).
 */
std::int32_t
AddCompleteSubtree(DecisionTree& tree, std::size_t depth,
                   std::size_t num_features, int num_classes,
                   std::uint32_t& state)
{
    state = state * 1664525u + 1013904223u;
    if (depth == 0) {
        return tree.AddLeafNode(
            static_cast<float>(state % static_cast<std::uint32_t>(
                                           num_classes)));
    }
    const auto feature = static_cast<std::int32_t>(state % num_features);
    const float threshold = static_cast<float>(state >> 8) /
                            static_cast<float>(1u << 24) * 8.0f;
    const std::int32_t node = tree.AddDecisionNode(feature, threshold);
    const std::int32_t left = AddCompleteSubtree(
        tree, depth - 1, num_features, num_classes, state);
    const std::int32_t right = AddCompleteSubtree(
        tree, depth - 1, num_features, num_classes, state);
    tree.SetChildren(node, left, right);
    return node;
}

// ------------------------------------------- concurrency + lifecycle --
// (ForestKernelTest.* also runs under the CI ThreadSanitizer job.)

TEST(ForestKernelTest, ParallelPredictMatchesScalarReference)
{
    RandomForest forest = TrainSmallIris(16, 6, 31);
    // > kParallelRowCutoff rows so Predict fans out on the ThreadPool.
    Dataset eval = MakeIris(10000, 32);
    auto expected = Reference(forest, eval.values().data(),
                              eval.num_rows(), eval.num_features());
    EXPECT_EQ(forest.Kernel()->Predict(eval.values().data(),
                                       eval.num_rows(),
                                       eval.num_features()),
              expected);
    EXPECT_EQ(forest.PredictBatch(eval), expected);
    EXPECT_EQ(forest.PredictBatchScalar(eval.values().data(),
                                        eval.num_rows(),
                                        eval.num_features()),
              expected);
}

TEST(ForestKernelTest, KernelIsCachedUntilMutation)
{
    RandomForest forest = TrainSmallIris(4, 4, 33);
    Dataset eval = MakeIris(500, 34);

    auto first = forest.Kernel();
    EXPECT_EQ(forest.Kernel().get(), first.get());  // cached
    EXPECT_EQ(first->NumTrees(), 4u);

    // Mutation invalidates: the next kernel is a fresh compile whose
    // predictions include the new tree.
    DecisionTree stump;
    stump.AddLeafNode(1.0f);
    forest.AddTree(std::move(stump));
    auto second = forest.Kernel();
    EXPECT_NE(second.get(), first.get());
    EXPECT_EQ(second->NumTrees(), 5u);
    EXPECT_EQ(forest.PredictBatch(eval),
              Reference(forest, eval.values().data(), eval.num_rows(),
                        eval.num_features()));
}

TEST(ForestKernelTest, CopiesShareTheCompiledKernel)
{
    RandomForest forest = TrainSmallIris(3, 4, 35);
    auto kernel = forest.Kernel();

    RandomForest copy = forest;
    EXPECT_EQ(copy.Kernel().get(), kernel.get());

    // Mutating the copy rebuilds only the copy's kernel.
    DecisionTree stump;
    stump.AddLeafNode(0.0f);
    copy.AddTree(std::move(stump));
    EXPECT_NE(copy.Kernel().get(), kernel.get());
    EXPECT_EQ(forest.Kernel().get(), kernel.get());
}

TEST(ForestKernelTest, CallerOwnedScratchIsReusableAcrossBatches)
{
    RandomForest forest = TrainSmallIris(8, 6, 36);
    Dataset a = MakeIris(700, 37);
    Dataset b = MakeIris(130, 38);
    auto kernel = forest.Kernel();

    ForestKernel::Scratch scratch;
    std::vector<float> out_a(a.num_rows());
    std::vector<float> out_b(b.num_rows());
    kernel->Run(a.values().data(), a.num_rows(), a.num_features(),
                out_a.data(), scratch);
    kernel->Run(b.values().data(), b.num_rows(), b.num_features(),
                out_b.data(), scratch);
    EXPECT_EQ(out_a, Reference(forest, a.values().data(), a.num_rows(),
                               a.num_features()));
    EXPECT_EQ(out_b, Reference(forest, b.values().data(), b.num_rows(),
                               b.num_features()));
}

TEST(ForestKernelTest, RejectsBadInput)
{
    RandomForest forest = TrainSmallIris(2, 3, 39);
    Dataset eval = MakeIris(10, 40);
    auto kernel = forest.Kernel();
    ForestKernel::Scratch scratch;
    std::vector<float> out(10);

    EXPECT_THROW(kernel->Predict(eval.values().data(), 10, 3),
                 InvalidArgument);
    EXPECT_THROW(kernel->Run(eval.values().data(), 10, 3, out.data(),
                             scratch),
                 InvalidArgument);

    // An untrained forest is not compilable (PredictBatch falls back).
    RandomForest empty(Task::kClassification, 4, 3);
    EXPECT_FALSE(ForestKernel::Supports(empty));
    EXPECT_THROW(empty.Kernel(), InvalidArgument);
    EXPECT_TRUE(empty.PredictBatch(eval.values().data(), 0, 4).empty());
}

TEST(ForestKernelTest, TilesPartitionLargeEnsembles)
{
    // 40 complete depth-10 trees (2047 nodes each) overflow one tree
    // tile's node budget, so a row block sweeps several tiles in turn.
    RandomForest forest(Task::kClassification, 4, 3);
    std::uint32_t state = 41;
    for (int t = 0; t < 40; ++t) {
        DecisionTree tree;
        AddCompleteSubtree(tree, 10, 4, 3, state);
        forest.AddTree(std::move(tree));
    }
    ForestKernel kernel(forest);
    EXPECT_GT(kernel.NumTiles(), 1u);

    Dataset eval = MakeIris(999, 42);
    EXPECT_EQ(kernel.Predict(eval.values().data(), eval.num_rows(),
                             eval.num_features()),
              Reference(forest, eval.values().data(), eval.num_rows(),
                        eval.num_features()));
}

TEST(ForestKernelTest, OversizedTreeTakesTheReferencePath)
{
    // A single tree above the packed word's 2^17-node limit: the
    // kernel cannot address it, so every caller scores it through the
    // reference path instead.
    // Falling thresholds: a row leaves the chain right at the first
    // node whose threshold it exceeds, onto a leaf of alternating class.
    DecisionTree chain;
    std::int32_t prev = chain.AddDecisionNode(0, 1.2f);
    for (std::size_t i = 1; i < (std::size_t{1} << 16) + 4; ++i) {
        std::int32_t next =
            chain.AddDecisionNode(0, 1.2f - static_cast<float>(i) * 1e-5f);
        std::int32_t leaf = chain.AddLeafNode(static_cast<float>(i % 2));
        chain.SetChildren(prev, next, leaf);
        prev = next;
    }
    std::int32_t l = chain.AddLeafNode(0.0f);
    std::int32_t r = chain.AddLeafNode(1.0f);
    chain.SetChildren(prev, l, r);
    ASSERT_GT(chain.NumNodes(), std::size_t{1} << 17);

    RandomForest forest(Task::kClassification, 2, 2);
    forest.AddTree(std::move(chain));
    EXPECT_FALSE(ForestKernel::Supports(forest));
    EXPECT_THROW(ForestKernel kernel(forest), InvalidArgument);

    Dataset data("chain", Task::kClassification, 2, 2);
    for (int i = 0; i < 300; ++i) {
        data.AddRow({0.4f + static_cast<float>(i) * 0.01f, 1.0f},
                    static_cast<float>(i % 2));
    }
    const std::vector<float> expected =
        Reference(forest, data.values().data(), data.num_rows(), 2);
    EXPECT_EQ(forest.PredictBatch(data.values().data(), data.num_rows(), 2),
              expected);
    EXPECT_EQ(forest.PredictBatch(data.View()), expected);
    WideCopy wide(data.values().data(), data.num_rows(), 2);
    EXPECT_EQ(forest.PredictBatch(wide.View(data.num_rows(), 2)), expected);

    Database db;
    db.StoreDataset("t", data);
    db.StoreModel("chain", TreeEnsemble::FromForest(forest));
    plan::Planner planner(db);
    const std::string sql = "SELECT SCORE(chain) FROM t";
    const QueryResult result = planner.ExecuteSelect(
        std::get<SelectStatement>(ParseSql(sql)), sql);
    ASSERT_EQ(result.rows.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(std::get<double>(result.rows[i][0]),
                  static_cast<double>(expected[i]))
            << "row " << i;
    }
}

// ------------------------------------------------- property sweep --

/** (generator, trees, depth): generator 0 IRIS, 1 HIGGS, 2 regression. */
class ForestKernelSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ForestKernelSweepTest, BitIdenticalToReferenceOnRaggedBatches)
{
    auto [generator, trees, depth] = GetParam();
    const auto seed = static_cast<std::uint64_t>(
        1000 + generator * 100 + trees * 10 + depth);

    Dataset train = generator == 0 ? MakeIris(200, seed)
                    : generator == 1
                        ? MakeHiggs(300, seed)
                        : MakeSyntheticRegression(300, 6, 0.1, seed);
    Dataset eval = generator == 0 ? MakeIris(4097, seed + 1)
                   : generator == 1
                       ? MakeHiggs(4097, seed + 1)
                       : MakeSyntheticRegression(4097, 6, 0.1, seed + 1);

    ForestTrainerConfig config;
    config.num_trees = static_cast<std::size_t>(trees);
    config.max_depth = static_cast<std::size_t>(depth);
    config.seed = seed;
    RandomForest forest = TrainForest(train, config);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, 4097, cols);

    // Ragged batch sizes straddling the parallel cutoff, the row
    // blocking, and the row-count rule: empty, single row, around the
    // 16-lane scalar group and the 64-row vector group.
    std::vector<std::size_t> counts = EdgeRowCounts();
    counts.push_back(4095);
    for (std::size_t n : counts) {
        auto got = forest.PredictBatch(rows, n, cols);
        ASSERT_EQ(got.size(), n);
        EXPECT_EQ(got, std::vector<float>(expected.begin(),
                                          expected.begin() +
                                              static_cast<long>(n)))
            << "generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestKernelSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 8, 128),
                       ::testing::Values(1, 6, 10)));

/**
 * (generator, trees, depth), as above, through a directly compiled
 * kernel on contiguous and strided rows. The test name is older than
 * the single node layout; the sweep now checks the one exact kernel.
 */
class ForestKernelV2SweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ForestKernelV2SweepTest, ExactBitIdenticalQuantizedEpsilon)
{
    auto [generator, trees, depth] = GetParam();
    const auto seed = static_cast<std::uint64_t>(
        2000 + generator * 100 + trees * 10 + depth);

    Dataset train = generator == 0 ? MakeIris(200, seed)
                    : generator == 1
                        ? MakeHiggs(300, seed)
                        : MakeSyntheticRegression(300, 6, 0.1, seed);
    Dataset eval = generator == 0 ? MakeIris(4097, seed + 1)
                   : generator == 1
                       ? MakeHiggs(4097, seed + 1)
                       : MakeSyntheticRegression(4097, 6, 0.1, seed + 1);

    ForestTrainerConfig config;
    config.num_trees = static_cast<std::size_t>(trees);
    config.max_depth = static_cast<std::size_t>(depth);
    config.seed = seed;
    RandomForest forest = TrainForest(train, config);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, 4097, cols);
    const ForestKernel kernel(forest);
    const WideCopy wide(rows, 4097, cols);

    std::vector<std::size_t> counts = EdgeRowCounts();
    counts.push_back(257);
    counts.push_back(1025);
    for (std::size_t n : counts) {
        const std::vector<float> want(expected.begin(),
                                      expected.begin() +
                                          static_cast<long>(n));
        EXPECT_EQ(kernel.Predict(rows, n, cols), want)
            << "contiguous generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
        EXPECT_EQ(kernel.Predict(wide.View(n, cols)), want)
            << "strided generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestKernelV2SweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 8, 128),
                       ::testing::Values(1, 6, 10)));

// ----------------------------------------------- loops of the rule --

TEST(ForestKernelV2Test, SimdAndScalarShimsAgree)
{
    // The same rows scored in calls of 64 (vector groups where a
    // vector backend runs), 48 and 16 (16-lane scalar groups) and 1
    // (the one-row tail) must give identical predictions.
    RandomForest forest = TrainSmallIris(32, 8, 51);
    Dataset eval = MakeIris(1024, 52);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    const auto expected = Reference(forest, rows, eval.num_rows(), cols);
    const auto kernel = forest.Kernel();

    ForestKernel::Scratch scratch;
    for (std::size_t call : {std::size_t{64}, std::size_t{48},
                             std::size_t{16}, std::size_t{1}}) {
        std::vector<float> got(eval.num_rows());
        for (std::size_t begin = 0; begin < eval.num_rows();
             begin += call) {
            const std::size_t n = std::min(call, eval.num_rows() - begin);
            kernel->Run(rows + begin * cols, n, cols, got.data() + begin,
                        scratch);
        }
        EXPECT_EQ(got, expected) << call << "-row calls";
    }
}

// -------------------------------------------------------------- trace --

TEST(ForestKernelV2Test, KernelBuildEmitsTraceStage)
{
    RandomForest forest = TrainSmallIris(8, 5, 65);
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.Clear();
    ForestKernel kernel(forest);
    (void)kernel;

    std::size_t builds = 0;
    for (const auto& span : tracer.Spans()) {
        if (span.stage == trace::StageKind::kKernelBuild) {
            EXPECT_EQ(std::string_view(span.name), "kernel-build");
            ++builds;
        }
    }
    EXPECT_EQ(builds, 1u);
    tracer.Clear();
}

TEST(ForestKernelV2Test, BuildWallTimeIsStampedUnderBothVersions)
{
    // The compile is timed for the registry's re-warm accounting: the
    // cached kernel of the model as trained and the one rebuilt after
    // a mutation each carry their own build time.
    RandomForest forest = TrainSmallIris(8, 5, 69);
    const auto trained = forest.Kernel();
    ASSERT_NE(trained, nullptr);
    EXPECT_GT(trained->build_wall_ms(), 0.0) << "as trained";

    DecisionTree stump;
    stump.AddLeafNode(0.0f);
    forest.AddTree(std::move(stump));
    const auto mutated = forest.Kernel();
    ASSERT_NE(mutated, nullptr);
    EXPECT_NE(mutated.get(), trained.get());
    EXPECT_GT(mutated->build_wall_ms(), 0.0) << "after mutation";
}

// ------------------------------------------------------------ scratch --

TEST(ForestKernelV2Test, ScratchReusableAcrossModesAndBatches)
{
    // One scratch serves a vote kernel and a mean-regress kernel back
    // to back, on batches of different sizes.
    RandomForest vote = TrainSmallIris(8, 6, 66);
    Dataset a = MakeIris(700, 67);
    Dataset b = MakeIris(130, 68);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 69;
    RandomForest mean =
        TrainForest(MakeSyntheticRegression(300, 4, 0.1, 69), config);

    ForestKernel::Scratch scratch;
    std::vector<float> out_a(a.num_rows());
    std::vector<float> out_b(b.num_rows());
    vote.Kernel()->Run(a.values().data(), a.num_rows(), a.num_features(),
                       out_a.data(), scratch);
    EXPECT_EQ(out_a, Reference(vote, a.values().data(), a.num_rows(),
                               a.num_features()));
    mean.Kernel()->Run(b.values().data(), b.num_rows(), b.num_features(),
                       out_b.data(), scratch);
    EXPECT_EQ(out_b, Reference(mean, b.values().data(), b.num_rows(),
                               b.num_features()));
    vote.Kernel()->Run(b.values().data(), b.num_rows(), b.num_features(),
                       out_b.data(), scratch);
    EXPECT_EQ(out_b, Reference(vote, b.values().data(), b.num_rows(),
                               b.num_features()));
}

// ---------------------------------------------------- threshold exit --

/**
 * Thresholds to test against @p preds: values the model predicts
 * (ties), midpoints between distinct predictions, and values beyond
 * any reachable sum. Returns the unreachable ones in @p unreachable.
 */
std::vector<float>
Thresholds(std::vector<float> preds, std::vector<float>& unreachable)
{
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    std::vector<float> out = {preds.front(), preds[preds.size() / 2],
                              preds.back()};
    if (preds.size() > 1) {
        out.push_back(0.5f * (preds[0] + preds[1]));
        const std::size_t m = preds.size() / 2;
        out.push_back(0.5f * (preds[m - 1] + preds[m]));
    }
    unreachable = {preds.back() + 1e6f, preds.front() - 1e6f};
    out.insert(out.end(), unreachable.begin(), unreachable.end());
    return out;
}

void
ExpectThresholdMatchesPredict(const ForestKernel& kernel,
                              const Dataset& eval, const char* model)
{
    ASSERT_TRUE(kernel.SupportsThresholdEarlyExit()) << model;
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    ASSERT_GE(eval.num_rows(), 4097u);
    const std::vector<float> preds = kernel.Predict(rows, 4097, cols);
    std::vector<float> unreachable;
    const std::vector<float> thetas = Thresholds(preds, unreachable);
    const WideCopy wide(rows, 4097, cols);

    for (ThresholdOp op : {ThresholdOp::kGt, ThresholdOp::kGe,
                           ThresholdOp::kLt, ThresholdOp::kLe}) {
        for (float theta : thetas) {
            const bool far =
                std::find(unreachable.begin(), unreachable.end(),
                          theta) != unreachable.end();
            for (std::size_t n : EdgeRowCounts()) {
                for (bool strided : {false, true}) {
                    const RowView view =
                        strided ? wide.View(n, cols)
                                : RowView::Borrow(rows, n, cols);
                    ThresholdStats stats;
                    const std::vector<std::uint8_t> keep =
                        kernel.PredictThreshold(view, op, theta, &stats);
                    ASSERT_EQ(keep.size(), n);
                    for (std::size_t i = 0; i < n; ++i) {
                        ASSERT_EQ(keep[i] != 0,
                                  ThresholdHolds(op, theta, preds[i]))
                            << model << " op=" << static_cast<int>(op)
                            << " theta=" << theta << " n=" << n
                            << " strided=" << strided << " row=" << i;
                    }
                    EXPECT_EQ(stats.rows, n);
                    if (far && n > 0) {
                        EXPECT_GT(stats.rows_decided_early, 0u)
                            << model << " theta=" << theta << " n=" << n;
                        EXPECT_LT(stats.tree_traversals,
                                  stats.tree_traversals_full);
                    }
                }
            }
        }
    }
}

TEST(ForestKernelThresholdTest, RegressionForestMatchesPredict)
{
    ForestTrainerConfig config;
    config.num_trees = 24;
    config.max_depth = 6;
    config.seed = 71;
    const RandomForest forest =
        TrainForest(MakeSyntheticRegression(400, 6, 0.1, 71), config);
    const ForestKernel kernel(forest);
    EXPECT_EQ(kernel.combine(), KernelCombine::kMeanRegress);
    ExpectThresholdMatchesPredict(
        kernel, MakeSyntheticRegression(4097, 6, 0.1, 72), "forest");
}

TEST(ForestKernelThresholdTest, GbdtRegressorMatchesPredict)
{
    GbdtConfig config;
    config.num_trees = 24;
    config.max_depth = 4;
    config.seed = 73;
    const GradientBoostedModel gbdt = TrainGbdtRegressor(
        MakeSyntheticRegression(400, 6, 0.1, 73), config);
    // The form SQL scores: the exported ensemble's regression forest.
    const ForestKernel kernel(gbdt.ToTreeEnsemble().ToForest());
    EXPECT_EQ(kernel.combine(), KernelCombine::kMeanRegress);
    ExpectThresholdMatchesPredict(
        kernel, MakeSyntheticRegression(4097, 6, 0.1, 74), "gbdt-reg");
}

TEST(ForestKernelThresholdTest, GbdtClassifierMatchesPredict)
{
    GbdtConfig config;
    config.num_trees = 24;
    config.max_depth = 4;
    config.seed = 75;
    const GradientBoostedModel gbdt =
        TrainGbdtClassifier(MakeHiggs(400, 75), config);
    // The form SQL scores: margins, through the mean of the exported
    // ensemble's regression forest.
    const ForestKernel kernel(gbdt.ToTreeEnsemble().ToForest());
    EXPECT_EQ(kernel.combine(), KernelCombine::kMeanRegress);
    ExpectThresholdMatchesPredict(kernel, MakeHiggs(4097, 76), "gbdt-cls");
}

}  // namespace
}  // namespace dbscore

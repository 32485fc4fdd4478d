/**
 * @file
 * Unit + property tests for dbscore/forest: tree mechanics, trainer
 * behaviour, byte buffers, and the ONNX-like exchange format and its
 * blob (the one form the DBMS stores).
 */
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/onnx_like.h"
#include "dbscore/forest/serialize.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/forest/tree.h"

namespace dbscore {
namespace {

/** Hand-builds the tree: x0 <= 0.5 ? (x1 <= 1.5 ? L0 : L1) : L2. */
DecisionTree
MakeSmallTree()
{
    DecisionTree t;
    std::int32_t root = t.AddDecisionNode(0, 0.5f);
    std::int32_t inner = t.AddDecisionNode(1, 1.5f);
    std::int32_t l0 = t.AddLeafNode(0.0f);
    std::int32_t l1 = t.AddLeafNode(1.0f);
    std::int32_t l2 = t.AddLeafNode(2.0f);
    t.SetChildren(root, inner, l2);
    t.SetChildren(inner, l0, l1);
    return t;
}

TEST(TreeTest, TraversalFollowsLeqConvention)
{
    DecisionTree t = MakeSmallTree();
    const float a[2] = {0.5f, 1.5f};  // <= goes left on both
    const float b[2] = {0.5f, 2.0f};
    const float c[2] = {0.6f, 0.0f};
    EXPECT_FLOAT_EQ(t.Predict(a), 0.0f);
    EXPECT_FLOAT_EQ(t.Predict(b), 1.0f);
    EXPECT_FLOAT_EQ(t.Predict(c), 2.0f);
}

TEST(TreeTest, StructureAccounting)
{
    DecisionTree t = MakeSmallTree();
    EXPECT_EQ(t.NumNodes(), 5u);
    EXPECT_EQ(t.NumLeaves(), 3u);
    EXPECT_EQ(t.Depth(), 2u);
    const float a[2] = {0.0f, 0.0f};
    EXPECT_EQ(t.PathLength(a), 2u);
    const float c[2] = {1.0f, 0.0f};
    EXPECT_EQ(t.PathLength(c), 1u);
}

TEST(TreeTest, SingleLeafTree)
{
    DecisionTree t;
    t.AddLeafNode(7.0f);
    const float row[1] = {0.0f};
    EXPECT_FLOAT_EQ(t.Predict(row), 7.0f);
    EXPECT_EQ(t.Depth(), 0u);
    EXPECT_NO_THROW(t.Validate(1));
}

TEST(TreeTest, ValidateCatchesCorruption)
{
    {
        DecisionTree t;  // decision node without children
        t.AddDecisionNode(0, 1.0f);
        EXPECT_THROW(t.Validate(1), ParseError);
    }
    {
        DecisionTree t;  // child id out of range
        std::int32_t root = t.AddDecisionNode(0, 1.0f);
        std::int32_t leaf = t.AddLeafNode(0.0f);
        t.SetChildren(root, leaf, 99);
        EXPECT_THROW(t.Validate(1), ParseError);
    }
    {
        DecisionTree t;  // cycle: node points at root
        std::int32_t root = t.AddDecisionNode(0, 1.0f);
        std::int32_t leaf = t.AddLeafNode(0.0f);
        t.SetChildren(root, leaf, root);
        EXPECT_THROW(t.Validate(1), ParseError);
    }
    {
        DecisionTree t;  // feature out of range
        std::int32_t root = t.AddDecisionNode(5, 1.0f);
        std::int32_t l0 = t.AddLeafNode(0.0f);
        std::int32_t l1 = t.AddLeafNode(1.0f);
        t.SetChildren(root, l0, l1);
        EXPECT_THROW(t.Validate(2), ParseError);
    }
    {
        DecisionTree t;  // unreachable node
        t.AddLeafNode(0.0f);
        t.AddLeafNode(1.0f);
        EXPECT_THROW(t.Validate(1), ParseError);
    }
}

TEST(MajorityVoteTest, PicksMostCommonClass)
{
    EXPECT_EQ(MajorityVote({0, 1, 1, 2, 1}, 3), 1);
    EXPECT_EQ(MajorityVote({2, 2, 2}, 3), 2);
}

TEST(MajorityVoteTest, TieBreaksTowardLowestClass)
{
    EXPECT_EQ(MajorityVote({0, 1}, 2), 0);
    EXPECT_EQ(MajorityVote({2, 1, 2, 1}, 3), 1);
}

TEST(ForestTest, RegressionAveragesTrees)
{
    RandomForest f(Task::kRegression, 1, 0);
    for (float v : {1.0f, 2.0f, 6.0f}) {
        DecisionTree t;
        t.AddLeafNode(v);
        f.AddTree(std::move(t));
    }
    const float row[1] = {0.0f};
    EXPECT_FLOAT_EQ(f.Predict(row), 3.0f);
}

TEST(ForestTest, ClassificationUsesMajorityVote)
{
    RandomForest f(Task::kClassification, 1, 3);
    for (float v : {1.0f, 2.0f, 1.0f}) {
        DecisionTree t;
        t.AddLeafNode(v);
        f.AddTree(std::move(t));
    }
    const float row[1] = {0.0f};
    EXPECT_FLOAT_EQ(f.Predict(row), 1.0f);
}

TEST(ForestTest, RejectsBadInput)
{
    EXPECT_THROW(RandomForest(Task::kClassification, 0, 2), InvalidArgument);
    EXPECT_THROW(RandomForest(Task::kClassification, 1, 1), InvalidArgument);
    RandomForest f(Task::kClassification, 2, 2);
    EXPECT_THROW(f.AddTree(DecisionTree{}), InvalidArgument);
    DecisionTree t;
    t.AddLeafNode(0.0f);
    f.AddTree(std::move(t));
    EXPECT_THROW(f.PredictBatch(nullptr, 0, 3), InvalidArgument);
}

TEST(GiniTest, KnownValues)
{
    EXPECT_DOUBLE_EQ(GiniImpurity({10, 0}), 0.0);
    EXPECT_DOUBLE_EQ(GiniImpurity({5, 5}), 0.5);
    EXPECT_NEAR(GiniImpurity({1, 1, 1}), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(GiniImpurity({}), 0.0);
}

TEST(TrainerTest, LearnsSeparableBlobs)
{
    Dataset data = MakeGaussianBlobs(600, 4, 3, 6.0, 11);
    auto split = SplitTrainTest(data, 0.7, 1);
    ForestTrainerConfig config;
    config.num_trees = 15;
    config.max_depth = 8;
    RandomForest forest = TrainForest(split.train, config);
    EXPECT_EQ(forest.NumTrees(), 15u);
    EXPECT_GT(forest.Accuracy(split.test), 0.95);
    EXPECT_NO_THROW(forest.Validate());
}

TEST(TrainerTest, LearnsIrisWell)
{
    Dataset iris = MakeIris(600, 3);
    auto split = SplitTrainTest(iris, 0.7, 2);
    ForestTrainerConfig config;
    config.num_trees = 20;
    config.max_depth = 10;
    RandomForest forest = TrainForest(split.train, config);
    EXPECT_GT(forest.Accuracy(split.test), 0.9);
}

TEST(TrainerTest, HiggsModelsAreLargerThanIris)
{
    // The paper's key dataset effect: HIGGS (28 features, weakly
    // separable) must yield far larger depth-10 trees than IRIS.
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 10;
    config.seed = 4;

    Dataset iris = MakeIris(2000, 5);
    Dataset higgs = MakeHiggs(2000, 5);
    RandomForest iris_model = TrainForest(iris, config);
    RandomForest higgs_model = TrainForest(higgs, config);

    ModelStats iris_stats = ComputeModelStats(iris_model, &iris);
    ModelStats higgs_stats = ComputeModelStats(higgs_model, &higgs);
    EXPECT_GT(higgs_stats.avg_nodes_per_tree,
              3.0 * iris_stats.avg_nodes_per_tree);
    EXPECT_GT(higgs_stats.avg_path_length, iris_stats.avg_path_length);
}

TEST(TrainerTest, RespectsMaxDepth)
{
    Dataset higgs = MakeHiggs(3000, 6);
    for (std::size_t depth : {2u, 6u, 10u}) {
        ForestTrainerConfig config;
        config.num_trees = 4;
        config.max_depth = depth;
        RandomForest forest = TrainForest(higgs, config);
        EXPECT_LE(forest.MaxDepth(), depth);
        EXPECT_GE(forest.MaxDepth(), depth - 1);
    }
}

TEST(TrainerTest, DeterministicAcrossRuns)
{
    Dataset data = MakeGaussianBlobs(300, 4, 2, 3.0, 21);
    ForestTrainerConfig config;
    config.num_trees = 6;
    config.max_depth = 6;
    RandomForest a = TrainForest(data, config);
    RandomForest b = TrainForest(data, config);
    // Thread scheduling must not affect the result.
    EXPECT_EQ(TreeEnsemble::FromForest(a).Serialize(),
              TreeEnsemble::FromForest(b).Serialize());
}

TEST(TrainerTest, RegressionReducesError)
{
    Dataset data = MakeSyntheticRegression(2000, 6, 0.05, 9);
    auto split = SplitTrainTest(data, 0.8, 3);
    ForestTrainerConfig config;
    config.num_trees = 30;
    config.max_depth = 8;
    RandomForest forest = TrainForest(split.train, config);

    // Compare model MSE against predicting the train mean.
    double mean = 0.0;
    for (std::size_t i = 0; i < split.train.num_rows(); ++i) {
        mean += split.train.Label(i);
    }
    mean /= static_cast<double>(split.train.num_rows());

    auto preds = forest.PredictBatch(split.test);
    double mse_model = 0.0;
    double mse_mean = 0.0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        double err = preds[i] - split.test.Label(i);
        double base = mean - split.test.Label(i);
        mse_model += err * err;
        mse_mean += base * base;
    }
    EXPECT_LT(mse_model, 0.5 * mse_mean);
}

TEST(TrainerTest, RejectsBadConfig)
{
    Dataset data = MakeIris(60, 1);
    ForestTrainerConfig config;
    config.num_trees = 0;
    EXPECT_THROW(TrainForest(data, config), InvalidArgument);
    config.num_trees = 2;
    config.max_depth = 0;
    EXPECT_THROW(TrainForest(data, config), InvalidArgument);

    Dataset bad("b", Task::kClassification, 1, 2);
    bad.AddRow({1.0f}, 5.0f);  // label out of class range
    ForestTrainerConfig ok;
    EXPECT_THROW(TrainForest(bad, ok), InvalidArgument);
}

TEST(SerializeTest, ByteRoundTripPrimitives)
{
    ByteWriter w;
    w.PutU8(7);
    w.PutU32(0xdeadbeef);
    w.PutU64(0x0123456789abcdefULL);
    w.PutI32(-42);
    w.PutF32(3.25f);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.GetU8(), 7);
    EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
    EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.GetI32(), -42);
    EXPECT_FLOAT_EQ(r.GetF32(), 3.25f);
    EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, ReaderThrowsOnTruncation)
{
    ByteWriter w;
    w.PutU32(1);
    ByteReader r(w.bytes());
    r.GetU32();
    EXPECT_THROW(r.GetU8(), ParseError);
}

/** Classification leaves that name no class of a 3-class forest. */
const std::vector<float>&
NonClassLeaves()
{
    static const std::vector<float> values = {
        7.0f, 3.0f, -0.6f, std::nanf(""),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(), 1e30f};
    return values;
}

TEST(OnnxLikeTest, ForestRoundTrip)
{
    Dataset data = MakeHiggs(500, 15);
    ForestTrainerConfig config;
    config.num_trees = 5;
    config.max_depth = 6;
    RandomForest forest = TrainForest(data, config);

    TreeEnsemble e = TreeEnsemble::FromForest(forest);
    EXPECT_EQ(e.NumTrees(), forest.NumTrees());
    EXPECT_EQ(e.NumNodes(), forest.TotalNodes());

    RandomForest restored = e.ToForest();
    EXPECT_EQ(forest.PredictBatch(data), restored.PredictBatch(data));
}

TEST(OnnxLikeTest, SerializedRoundTrip)
{
    for (const auto& [rows, seed, trees, depth] :
         {std::tuple{200, 16, 3, 5}, {300, 13, 10, 10}}) {
        Dataset data = MakeIris(rows, seed);
        ForestTrainerConfig config;
        config.num_trees = static_cast<std::size_t>(trees);
        config.max_depth = static_cast<std::size_t>(depth);
        RandomForest forest = TrainForest(data, config);

        TreeEnsemble e = TreeEnsemble::FromForest(forest);
        auto blob = e.Serialize();
        TreeEnsemble back = TreeEnsemble::Deserialize(blob);
        EXPECT_EQ(back.NumNodes(), e.NumNodes());
        RandomForest restored = back.ToForest();
        EXPECT_EQ(restored.NumTrees(), forest.NumTrees());
        EXPECT_EQ(restored.num_classes(), forest.num_classes());
        EXPECT_EQ(forest.PredictBatch(data), restored.PredictBatch(data));
    }
}

TEST(OnnxLikeTest, ByteSizeTracksNodeCount)
{
    Dataset data = MakeIris(200, 17);
    ForestTrainerConfig config;
    config.num_trees = 2;
    config.max_depth = 4;
    TreeEnsemble e =
        TreeEnsemble::FromForest(TrainForest(data, config));
    EXPECT_GT(e.ByteSize(), e.NumNodes() * 20);
    EXPECT_LT(e.ByteSize(), e.NumNodes() * 40 + 64);
}

TEST(OnnxLikeTest, RejectsMalformedEnsembles)
{
    TreeEnsemble empty;
    EXPECT_THROW(empty.ToForest(), ParseError);

    Dataset data = MakeIris(100, 18);
    ForestTrainerConfig config;
    config.num_trees = 2;
    config.max_depth = 3;
    TreeEnsemble e =
        TreeEnsemble::FromForest(TrainForest(data, config));
    {
        TreeEnsemble bad = e;
        bad.leaf_values.pop_back();  // ragged arrays
        EXPECT_THROW(bad.ToForest(), ParseError);
    }
    {
        TreeEnsemble bad = e;
        bad.node_ids.back() += 5;  // non-dense ids
        EXPECT_THROW(bad.ToForest(), ParseError);
    }
    const auto blob = e.Serialize();
    {
        auto bad = blob;
        bad[0] ^= 0x1;  // magic
        EXPECT_THROW(TreeEnsemble::Deserialize(bad), ParseError);
    }
    {
        auto bad = blob;
        bad[4] = 9;  // version
        EXPECT_THROW(TreeEnsemble::Deserialize(bad), ParseError);
    }
    {
        auto bad = blob;
        bad.resize(bad.size() / 2);  // truncated
        EXPECT_THROW(TreeEnsemble::Deserialize(bad), ParseError);
    }
    {
        auto bad = blob;
        bad.push_back(0);  // trailing garbage
        EXPECT_THROW(TreeEnsemble::Deserialize(bad), ParseError);
    }
}

TEST(OnnxLikeTest, RejectsLeavesThatAreNotClassIds)
{
    Dataset data = MakeIris(100, 19);
    ForestTrainerConfig config;
    config.num_trees = 2;
    config.max_depth = 3;
    const TreeEnsemble e =
        TreeEnsemble::FromForest(TrainForest(data, config));
    ASSERT_EQ(e.num_classes, 3);
    std::size_t leaf = 0;
    while (e.modes[leaf] != NodeMode::kLeaf) {
        ++leaf;
    }
    for (float value : NonClassLeaves()) {
        TreeEnsemble bad = e;
        bad.leaf_values[leaf] = value;
        EXPECT_THROW(bad.ToForest(), ParseError) << "leaf " << value;
        // The blob round trip carries the bad leaf to the same check.
        EXPECT_THROW(TreeEnsemble::Deserialize(bad.Serialize()).ToForest(),
                     ParseError)
            << "leaf " << value;
    }
    // Leaves round to class ids the way every predictor rounds them.
    for (float value : {2.4f, -0.4f}) {
        TreeEnsemble rounded = e;
        rounded.leaf_values[leaf] = value;
        EXPECT_NO_THROW(rounded.ToForest()) << "leaf " << value;
        EXPECT_NO_THROW(
            TreeEnsemble::Deserialize(rounded.Serialize()).ToForest())
            << "leaf " << value;
    }

    // Regression leaves are values, not class ids.
    TreeEnsemble reg = e;
    reg.task = Task::kRegression;
    reg.num_classes = 0;
    reg.leaf_values[leaf] = 7.0f;
    EXPECT_NO_THROW(reg.ToForest());
}

TEST(ModelStatsTest, CountsAreConsistent)
{
    Dataset data = MakeIris(400, 19);
    ForestTrainerConfig config;
    config.num_trees = 7;
    config.max_depth = 6;
    RandomForest forest = TrainForest(data, config);
    ModelStats stats = ComputeModelStats(forest, &data);

    EXPECT_EQ(stats.num_trees, 7u);
    EXPECT_EQ(stats.num_features, 4u);
    EXPECT_EQ(stats.total_nodes, forest.TotalNodes());
    // Binary trees: leaves = internal + 1 per tree.
    EXPECT_EQ(stats.total_leaves,
              (stats.total_nodes - stats.total_leaves) + stats.num_trees);
    EXPECT_GT(stats.avg_path_length, 0.0);
    EXPECT_LE(stats.avg_path_length,
              static_cast<double>(stats.max_depth));
    EXPECT_GT(stats.serialized_bytes, 0u);
}

/** Property sweep: round trips hold across tree counts and depths. */
class ForestRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ForestRoundTripTest, SerializeAndOnnxAgreeWithReference)
{
    auto [trees, depth] = GetParam();
    Dataset data = MakeHiggs(400, 100 + trees * 10 + depth);
    ForestTrainerConfig config;
    config.num_trees = static_cast<std::size_t>(trees);
    config.max_depth = static_cast<std::size_t>(depth);
    RandomForest forest = TrainForest(data, config);

    auto expected = forest.PredictBatch(data);
    EXPECT_EQ(TreeEnsemble::Deserialize(
                  TreeEnsemble::FromForest(forest).Serialize())
                  .ToForest()
                  .PredictBatch(data),
              expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestRoundTripTest,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(2, 6, 10)));

}  // namespace
}  // namespace dbscore

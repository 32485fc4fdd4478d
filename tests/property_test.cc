/**
 * @file
 * Property-based and fuzz-style tests across module boundaries:
 * randomly structured trees (not just trained ones), byte-level fuzzing
 * of the deserializers, garbage fuzzing of the SQL parser, and
 * monotonicity/consistency laws of the cost models.
 */
#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/core/backend_factory.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/sql.h"
#include "dbscore/engines/gpu/hummingbird_engine.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/onnx_like.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/fpgasim/tree_layout.h"
#include "dbscore/gpusim/gpu_device.h"

namespace dbscore {
namespace {

/**
 * Builds a random tree over @p num_features with arbitrary (possibly
 * degenerate) structure, bounded by @p max_depth.
 */
DecisionTree
RandomTree(Rng& rng, std::size_t num_features, int num_classes,
           std::size_t max_depth)
{
    DecisionTree tree;
    // Recursive lambda via explicit stack of (parent, is_left, depth).
    struct Pending {
        std::int32_t parent;  // -1 for the root
        bool is_left;
        std::size_t depth;
    };
    std::vector<Pending> todo{{-1, false, 0}};
    while (!todo.empty()) {
        Pending p = todo.back();
        todo.pop_back();
        bool leaf = p.depth >= max_depth || rng.NextDouble() < 0.35;
        std::int32_t node;
        if (leaf) {
            node = tree.AddLeafNode(static_cast<float>(
                rng.NextBelow(static_cast<std::uint64_t>(num_classes))));
        } else {
            node = tree.AddDecisionNode(
                static_cast<std::int32_t>(rng.NextBelow(num_features)),
                static_cast<float>(rng.NextUniform(-2.0, 2.0)));
        }
        if (p.parent >= 0) {
            // Children of the parent get wired as they materialize.
            std::int32_t left = tree.Left(p.parent);
            std::int32_t right = tree.Right(p.parent);
            if (p.is_left) {
                left = node;
            } else {
                right = node;
            }
            tree.SetChildren(p.parent, left, right);
        }
        if (!leaf) {
            todo.push_back({node, true, p.depth + 1});
            todo.push_back({node, false, p.depth + 1});
        }
    }
    return tree;
}

RandomForest
RandomForestModel(std::uint64_t seed, std::size_t trees,
                  std::size_t num_features, int num_classes,
                  std::size_t max_depth)
{
    Rng rng(seed);
    RandomForest forest(Task::kClassification, num_features, num_classes);
    for (std::size_t t = 0; t < trees; ++t) {
        forest.AddTree(RandomTree(rng, num_features, num_classes,
                                  max_depth));
    }
    return forest;
}

std::vector<float>
RandomRows(std::uint64_t seed, std::size_t rows, std::size_t cols)
{
    Rng rng(seed);
    std::vector<float> data(rows * cols);
    for (auto& v : data) {
        v = static_cast<float>(rng.NextUniform(-3.0, 3.0));
    }
    return data;
}

// --------------------------------------------- random-structure sweeps --

class RandomTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomTreeProperty, LayoutWalkEqualsTraversal)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    RandomForest forest = RandomForestModel(seed, 6, 5, 3, 9);
    forest.Validate();
    auto rows = RandomRows(seed ^ 0xffULL, 200, 5);
    for (const auto& tree : forest.trees()) {
        TreeMemoryImage image = LayoutTree(tree, 10);
        for (std::size_t r = 0; r < 200; ++r) {
            ASSERT_FLOAT_EQ(WalkTreeImage(image, rows.data() + r * 5),
                            tree.Predict(rows.data() + r * 5));
        }
    }
}

TEST_P(RandomTreeProperty, SerializationRoundTripsRandomStructures)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    RandomForest forest = RandomForestModel(seed, 5, 4, 4, 8);
    auto rows = RandomRows(seed ^ 0x1234ULL, 128, 4);

    const auto blob = TreeEnsemble::FromForest(forest).Serialize();
    RandomForest restored = TreeEnsemble::Deserialize(blob).ToForest();
    RandomForest via_onnx =
        TreeEnsemble::FromForest(forest).ToForest();
    for (std::size_t r = 0; r < 128; ++r) {
        const float* row = rows.data() + r * 4;
        ASSERT_FLOAT_EQ(restored.Predict(row), forest.Predict(row));
        ASSERT_FLOAT_EQ(via_onnx.Predict(row), forest.Predict(row));
    }
}

TEST_P(RandomTreeProperty, HummingbirdCompilesRandomStructures)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    RandomForest forest = RandomForestModel(seed, 4, 6, 3, 7);
    TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    ModelStats stats = ComputeModelStats(forest, nullptr);
    auto rows = RandomRows(seed ^ 0x77ULL, 150, 6);
    auto reference = forest.PredictBatch(rows.data(), 150, 6);

    GpuDeviceModel device(GpuSpec{}, PcieLinkSpec{});
    for (HbStrategy strategy :
         {HbStrategy::kGemm, HbStrategy::kPerfectTreeTraversal}) {
        HummingbirdParams params;
        params.strategy = strategy;
        HummingbirdGpuEngine engine(device, params);
        engine.LoadModel(ensemble, stats);
        ASSERT_EQ(engine.Score(rows.data(), 150, 6).predictions,
                  reference)
            << "strategy " << static_cast<int>(strategy);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeProperty,
                         ::testing::Range(1, 11));

// ------------------------------------------------------- blob fuzzing --

TEST(FuzzTest, MutatedEnsembleBlobsNeverCrash)
{
    auto ensemble_blob = [](const Dataset& data, std::size_t trees,
                            std::size_t depth) {
        ForestTrainerConfig config;
        config.num_trees = trees;
        config.max_depth = depth;
        return TreeEnsemble::FromForest(TrainForest(data, config))
            .Serialize();
    };
    int parsed = 0;
    int rejected = 0;
    auto check = [&](const std::vector<std::uint8_t>& mutated) {
        try {
            RandomForest forest =
                TreeEnsemble::Deserialize(mutated).ToForest();
            // If it parsed, it must be structurally sound.
            forest.Validate();
            ++parsed;
        } catch (const ParseError&) {
            ++rejected;
        } catch (const InvalidArgument&) {
            ++rejected;
        }
    };

    // 300 single-byte mutations of a HIGGS ensemble.
    const auto higgs = ensemble_blob(MakeHiggs(200, 82), 3, 5);
    Rng rng(4048);
    for (int i = 0; i < 300; ++i) {
        auto mutated = higgs;
        mutated[rng.NextBelow(mutated.size())] =
            static_cast<std::uint8_t>(rng.Next());
        check(mutated);
    }

    // 400 mutations of 1-4 bytes each of an IRIS ensemble.
    const auto iris = ensemble_blob(MakeIris(150, 81), 4, 6);
    Rng multi(2024);
    for (int i = 0; i < 400; ++i) {
        auto mutated = iris;
        const std::size_t flips = 1 + multi.NextBelow(4);
        for (std::size_t f = 0; f < flips; ++f) {
            std::size_t pos = static_cast<std::size_t>(
                multi.NextBelow(mutated.size()));
            mutated[pos] = static_cast<std::uint8_t>(multi.Next());
        }
        check(mutated);
    }
    EXPECT_EQ(parsed + rejected, 700);
    EXPECT_GT(rejected, 0);  // mutations are usually fatal
}

TEST(FuzzTest, TruncatedBlobsAlwaysRejected)
{
    Dataset data = MakeIris(120, 83);
    ForestTrainerConfig config;
    config.num_trees = 2;
    config.max_depth = 5;
    auto blob =
        TreeEnsemble::FromForest(TrainForest(data, config)).Serialize();
    for (std::size_t cut = 0; cut < blob.size();
         cut += std::max<std::size_t>(1, blob.size() / 64)) {
        std::vector<std::uint8_t> prefix(blob.begin(),
                                         blob.begin() + cut);
        EXPECT_THROW(TreeEnsemble::Deserialize(prefix), ParseError)
            << "prefix length " << cut;
    }
}

// -------------------------------------------------------- SQL fuzzing --

TEST(FuzzTest, SqlGarbageNeverCrashes)
{
    Rng rng(7777);
    const std::string alphabet =
        "SELECTINSERTEXECabz019 ,()'*=<>@;.\"-_\t\n";
    for (int i = 0; i < 500; ++i) {
        std::string sql;
        const std::size_t len = 1 + rng.NextBelow(60);
        for (std::size_t c = 0; c < len; ++c) {
            sql.push_back(alphabet[rng.NextBelow(alphabet.size())]);
        }
        try {
            (void)ParseSql(sql);
        } catch (const ParseError&) {
            // expected for most inputs
        }
    }
    SUCCEED();
}

TEST(FuzzTest, SqlMutationsOfValidStatements)
{
    const std::string valid =
        "SELECT TOP 3 a, b FROM t WHERE a >= 1.5 AND b <> 'x'";
    Rng rng(8888);
    for (int i = 0; i < 300; ++i) {
        std::string sql = valid;
        std::size_t pos = rng.NextBelow(sql.size());
        sql[pos] = static_cast<char>(
            ' ' + static_cast<char>(rng.NextBelow(94)));
        try {
            (void)ParseSql(sql);
        } catch (const ParseError&) {
        }
    }
    SUCCEED();
}

// -------------------------------------------- cost-model consistency --

class CostModelLaw : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CostModelLaw, EstimateIsMonotoneInRecords)
{
    BackendKind kind = GetParam();
    Dataset data = MakeHiggs(2000, 84);
    ForestTrainerConfig config;
    config.num_trees = 16;
    config.max_depth = 8;
    RandomForest forest = TrainForest(data, config);
    auto engine = CreateLoadedEngine(
        kind, HardwareProfile::Paper(), TreeEnsemble::FromForest(forest),
        ComputeModelStats(forest, &data));
    ASSERT_NE(engine, nullptr);

    SimTime prev;
    for (std::size_t n : {1u, 10u, 100u, 1000u, 10000u, 100000u,
                          1000000u}) {
        OffloadBreakdown b = engine->Estimate(n);
        SimTime total = b.Total();
        EXPECT_GE(total.seconds(), prev.seconds()) << "n=" << n;
        prev = total;
        // Component identity: Total == O + L + C + preprocessing.
        EXPECT_NEAR(total.seconds(),
                    (b.OverheadO() + b.TransferL() + b.compute +
                     b.preprocessing)
                        .seconds(),
                    1e-15);
        // No negative components.
        for (SimTime t : {b.preprocessing, b.input_transfer, b.setup,
                          b.compute, b.completion_signal,
                          b.result_transfer, b.software_overhead}) {
            EXPECT_GE(t.seconds(), 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CostModelLaw,
    ::testing::Values(BackendKind::kCpuSklearn, BackendKind::kCpuOnnx,
                      BackendKind::kCpuOnnxMt,
                      BackendKind::kGpuHummingbird,
                      BackendKind::kGpuRapids, BackendKind::kFpga,
                      BackendKind::kFpgaHybrid));

TEST(CostModelLawTest, SchedulerBestIsMinimum)
{
    Dataset data = MakeHiggs(1500, 85);
    ForestTrainerConfig config;
    config.num_trees = 32;
    config.max_depth = 10;
    RandomForest forest = TrainForest(data, config);
    OffloadScheduler sched(HardwareProfile::Paper(),
                           TreeEnsemble::FromForest(forest),
                           ComputeModelStats(forest, &data));
    for (std::size_t n : {1u, 1000u, 1000000u}) {
        SchedulerDecision d = sched.Choose(n);
        for (BackendKind kind : sched.Available()) {
            EXPECT_GE(sched.EstimateFor(kind, n).Total().seconds(),
                      d.best_time.seconds())
                << BackendName(kind) << " at n=" << n;
        }
    }
}

}  // namespace
}  // namespace dbscore

/**
 * @file
 * Tests for the gradient-boosted-trees substrate and its engine
 * interoperability (export to the shared TreeEnsemble format).
 */
#include <cmath>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/common/stats.h"
#include "dbscore/core/backend_factory.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/model_stats.h"

namespace dbscore {
namespace {

TEST(GbdtTest, RegressorBeatsMeanBaseline)
{
    Dataset data = MakeSyntheticRegression(3000, 6, 0.05, 11);
    auto split = SplitTrainTest(data, 0.8, 1);
    GbdtConfig config;
    config.num_trees = 60;
    config.max_depth = 4;
    GradientBoostedModel model = TrainGbdtRegressor(split.train, config);

    double mean = 0.0;
    for (std::size_t i = 0; i < split.train.num_rows(); ++i) {
        mean += split.train.Label(i);
    }
    mean /= static_cast<double>(split.train.num_rows());

    double mse_model = 0.0;
    double mse_mean = 0.0;
    auto preds = model.PredictBatch(split.test);
    for (std::size_t i = 0; i < preds.size(); ++i) {
        double err = preds[i] - split.test.Label(i);
        double base = mean - split.test.Label(i);
        mse_model += err * err;
        mse_mean += base * base;
    }
    EXPECT_LT(mse_model, 0.3 * mse_mean);
}

TEST(GbdtTest, MoreStagesReduceTrainError)
{
    Dataset data = MakeSyntheticRegression(1000, 4, 0.02, 12);
    GbdtConfig small;
    small.num_trees = 5;
    small.max_depth = 3;
    GbdtConfig large = small;
    large.num_trees = 80;

    auto mse = [&](const GradientBoostedModel& m) {
        double sum = 0.0;
        auto preds = m.PredictBatch(data);
        for (std::size_t i = 0; i < preds.size(); ++i) {
            double err = preds[i] - data.Label(i);
            sum += err * err;
        }
        return sum;
    };
    EXPECT_LT(mse(TrainGbdtRegressor(data, large)),
              0.5 * mse(TrainGbdtRegressor(data, small)));
}

TEST(GbdtTest, ClassifierLearnsHiggs)
{
    Dataset higgs = MakeHiggs(4000, 13);
    auto split = SplitTrainTest(higgs, 0.75, 2);
    GbdtConfig config;
    config.num_trees = 40;
    config.max_depth = 4;
    GradientBoostedModel model =
        TrainGbdtClassifier(split.train, config);
    EXPECT_GT(model.Accuracy(split.test), 0.6);  // weakly separable data
    // And it must beat always-predicting the majority class.
    double ones = 0.0;
    for (std::size_t i = 0; i < split.test.num_rows(); ++i) {
        ones += split.test.Label(i);
    }
    double majority = std::max(
        ones / split.test.num_rows(),
        1.0 - ones / split.test.num_rows());
    EXPECT_GT(model.Accuracy(split.test), majority + 0.03);
}

TEST(GbdtTest, SubsamplingStillLearns)
{
    Dataset data = MakeSyntheticRegression(2000, 5, 0.05, 14);
    GbdtConfig config;
    config.num_trees = 40;
    config.max_depth = 3;
    config.subsample = 0.5;
    GradientBoostedModel model = TrainGbdtRegressor(data, config);
    double mse = 0.0;
    auto preds = model.PredictBatch(data);
    RunningStats label_stats;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        double err = preds[i] - data.Label(i);
        mse += err * err;
        label_stats.Add(data.Label(i));
    }
    mse /= static_cast<double>(preds.size());
    EXPECT_LT(mse, 0.5 * label_stats.Variance());
}

TEST(GbdtTest, DeterministicPerSeed)
{
    Dataset data = MakeSyntheticRegression(500, 4, 0.1, 15);
    GbdtConfig config;
    config.num_trees = 10;
    config.max_depth = 3;
    GradientBoostedModel a = TrainGbdtRegressor(data, config);
    GradientBoostedModel b = TrainGbdtRegressor(data, config);
    EXPECT_EQ(a.PredictBatch(data), b.PredictBatch(data));
}

TEST(GbdtTest, RejectsBadConfigAndData)
{
    Dataset reg = MakeSyntheticRegression(100, 3, 0.1, 16);
    Dataset iris = MakeIris(100, 16);
    GbdtConfig config;
    config.num_trees = 0;
    EXPECT_THROW(TrainGbdtRegressor(reg, config), InvalidArgument);
    config.num_trees = 5;
    config.learning_rate = 0.0;
    EXPECT_THROW(TrainGbdtRegressor(reg, config), InvalidArgument);
    config.learning_rate = 0.1;
    config.subsample = 1.5;
    EXPECT_THROW(TrainGbdtRegressor(reg, config), InvalidArgument);
    config.subsample = 1.0;
    EXPECT_THROW(TrainGbdtRegressor(iris, config), InvalidArgument);
    // Classifier needs binary data.
    EXPECT_THROW(TrainGbdtClassifier(iris, config), InvalidArgument);
    EXPECT_THROW(TrainGbdtClassifier(reg, config), InvalidArgument);
}

TEST(GbdtTest, EnsembleExportReproducesMargin)
{
    Dataset data = MakeSyntheticRegression(800, 5, 0.05, 17);
    GbdtConfig config;
    config.num_trees = 25;
    config.max_depth = 4;
    GradientBoostedModel model = TrainGbdtRegressor(data, config);

    TreeEnsemble ensemble = model.ToTreeEnsemble();
    EXPECT_EQ(ensemble.task, Task::kRegression);
    RandomForest forest = ensemble.ToForest();
    for (std::size_t i = 0; i < 100; ++i) {
        ASSERT_NEAR(forest.Predict(data.Row(i)),
                    model.Margin(data.Row(i)), 2e-3);
    }
}

TEST(GbdtTest, EveryBackendScoresBoostedModels)
{
    // The headline interoperability property: a boosted model exported
    // to the shared exchange format scores identically (within float32
    // accumulation tolerance) on CPU, GPU, and FPGA engines.
    Dataset data = MakeSyntheticRegression(400, 5, 0.05, 18);
    GbdtConfig config;
    config.num_trees = 12;
    config.max_depth = 5;
    GradientBoostedModel model = TrainGbdtRegressor(data, config);

    TreeEnsemble ensemble = model.ToTreeEnsemble();
    RandomForest forest = ensemble.ToForest();
    ModelStats stats = ComputeModelStats(forest, &data);
    HardwareProfile profile = HardwareProfile::Paper();

    for (BackendKind kind :
         {BackendKind::kCpuSklearn, BackendKind::kGpuHummingbird,
          BackendKind::kFpga}) {
        auto engine = CreateLoadedEngine(kind, profile, ensemble, stats);
        ASSERT_NE(engine, nullptr) << BackendName(kind);
        auto result = engine->Score(data.values().data(), data.num_rows(),
                                    data.num_features());
        for (std::size_t i = 0; i < data.num_rows(); ++i) {
            ASSERT_NEAR(result.predictions[i], model.Margin(data.Row(i)),
                        5e-3)
                << BackendName(kind) << " row " << i;
        }
    }
}

TEST(GbdtTest, ClassifierMarginRoundTrip)
{
    Dataset higgs = MakeHiggs(1500, 19);
    GbdtConfig config;
    config.num_trees = 20;
    config.max_depth = 3;
    GradientBoostedModel model = TrainGbdtClassifier(higgs, config);
    TreeEnsemble ensemble = model.ToTreeEnsemble();
    RandomForest forest = ensemble.ToForest();
    // Class decisions recovered from engine margins match Predict().
    for (std::size_t i = 0; i < 200; ++i) {
        float margin = forest.Predict(higgs.Row(i));
        EXPECT_EQ(
            static_cast<float>(GradientBoostedModel::MarginToClass(margin)),
            model.Predict(higgs.Row(i)))
            << "row " << i;
    }
}

}  // namespace
}  // namespace dbscore

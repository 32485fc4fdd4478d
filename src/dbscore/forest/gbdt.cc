#include "dbscore/forest/gbdt.h"

#include <algorithm>
#include <cmath>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/forest/trainer.h"

namespace dbscore {

namespace {

double
Sigmoid(double x)
{
    return 1.0 / (1.0 + std::exp(-x));
}

/** Fits one regression tree to the residuals with the shared CART code. */
DecisionTree
FitStageTree(const Dataset& residuals, const GbdtConfig& config,
             std::uint64_t stage_seed)
{
    ForestTrainerConfig tree_config;
    tree_config.num_trees = 1;
    tree_config.max_depth = config.max_depth;
    tree_config.min_samples_leaf = config.min_samples_leaf;
    tree_config.max_features_fraction = 1.0;  // boosting uses all features
    tree_config.bootstrap = false;
    tree_config.seed = stage_seed;
    RandomForest stage = TrainForest(residuals, tree_config);
    return stage.trees().front();
}

/** Builds a residual dataset over the (optionally subsampled) rows. */
Dataset
MakeResidualData(const Dataset& train,
                 const std::vector<std::size_t>& rows,
                 const std::vector<double>& residuals)
{
    Dataset out("residuals", Task::kRegression, train.num_features(), 0);
    for (std::size_t r : rows) {
        // Span append straight from the source row — no staging buffer.
        out.AddRow(train.Row(r), train.num_features(),
                   static_cast<float>(residuals[r]));
    }
    return out;
}

std::vector<std::size_t>
SampleRows(std::size_t num_rows, double fraction, Rng& rng)
{
    std::vector<std::size_t> rows(num_rows);
    for (std::size_t i = 0; i < num_rows; ++i) {
        rows[i] = i;
    }
    if (fraction >= 1.0) {
        return rows;
    }
    rng.Shuffle(rows);
    auto keep = std::max<std::size_t>(
        2, static_cast<std::size_t>(fraction *
                                    static_cast<double>(num_rows)));
    rows.resize(keep);
    return rows;
}

void
ValidateConfig(const GbdtConfig& config)
{
    if (config.num_trees == 0 || config.max_depth == 0) {
        throw InvalidArgument("gbdt: num_trees/max_depth must be positive");
    }
    if (config.learning_rate <= 0.0 || config.learning_rate > 1.0) {
        throw InvalidArgument("gbdt: learning_rate must be in (0, 1]");
    }
    if (config.subsample <= 0.0 || config.subsample > 1.0) {
        throw InvalidArgument("gbdt: subsample must be in (0, 1]");
    }
}

}  // namespace

GradientBoostedModel::GradientBoostedModel(Task task,
                                           std::size_t num_features,
                                           double base_score,
                                           double learning_rate)
    : task_(task),
      num_features_(num_features),
      base_score_(base_score),
      learning_rate_(learning_rate)
{
}

void
GradientBoostedModel::AddTree(DecisionTree tree)
{
    DBS_ASSERT(!tree.Empty());
    trees_.push_back(std::move(tree));
}

double
GradientBoostedModel::Margin(const float* row) const
{
    double margin = base_score_;
    for (const auto& tree : trees_) {
        margin += learning_rate_ * tree.Predict(row);
    }
    return margin;
}

int
GradientBoostedModel::MarginToClass(float margin)
{
    return Sigmoid(margin) >= 0.5 ? 1 : 0;
}

float
GradientBoostedModel::Predict(const float* row) const
{
    double margin = Margin(row);
    if (task_ == Task::kRegression) {
        return static_cast<float>(margin);
    }
    return static_cast<float>(
        MarginToClass(static_cast<float>(margin)));
}

std::vector<float>
GradientBoostedModel::PredictBatch(const Dataset& data) const
{
    if (data.num_features() != num_features_) {
        throw InvalidArgument("gbdt: row arity mismatch");
    }
    std::vector<float> out(data.num_rows());
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
        out[i] = Predict(data.Row(i));
    }
    return out;
}

double
GradientBoostedModel::Accuracy(const Dataset& data) const
{
    if (task_ != Task::kClassification) {
        throw InvalidArgument("gbdt: accuracy needs a classifier");
    }
    auto preds = PredictBatch(data);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == data.Label(i)) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(preds.size());
}

TreeEnsemble
GradientBoostedModel::ToTreeEnsemble() const
{
    DBS_ASSERT_MSG(!trees_.empty(), "export of an untrained GBDT");
    // Engines combine regression trees by averaging. Rescale each leaf
    // to T*lr*value + base so the average equals the additive margin.
    const double t = static_cast<double>(trees_.size());
    RandomForest forest(Task::kRegression, num_features_, 0);
    for (const auto& tree : trees_) {
        DecisionTree scaled;
        for (std::size_t i = 0; i < tree.NumNodes(); ++i) {
            auto node = static_cast<std::int32_t>(i);
            if (tree.IsLeaf(node)) {
                scaled.AddLeafNode(static_cast<float>(
                    t * learning_rate_ * tree.LeafValue(node) +
                    base_score_));
            } else {
                std::int32_t id = scaled.AddDecisionNode(
                    tree.Feature(node), tree.Threshold(node));
                scaled.SetChildren(id, tree.Left(node), tree.Right(node));
            }
        }
        forest.AddTree(std::move(scaled));
    }
    return TreeEnsemble::FromForest(forest);
}

GradientBoostedModel
TrainGbdtRegressor(const Dataset& train, const GbdtConfig& config)
{
    ValidateConfig(config);
    if (train.task() != Task::kRegression || train.num_rows() == 0) {
        throw InvalidArgument("gbdt regressor: need non-empty regression "
                              "data");
    }

    double base = 0.0;
    for (std::size_t i = 0; i < train.num_rows(); ++i) {
        base += train.Label(i);
    }
    base /= static_cast<double>(train.num_rows());

    GradientBoostedModel model(Task::kRegression, train.num_features(),
                               base, config.learning_rate);

    std::vector<double> margin(train.num_rows(), base);
    std::vector<double> residual(train.num_rows());
    Rng rng(config.seed);
    for (std::size_t stage = 0; stage < config.num_trees; ++stage) {
        for (std::size_t i = 0; i < train.num_rows(); ++i) {
            residual[i] = train.Label(i) - margin[i];
        }
        auto rows = SampleRows(train.num_rows(), config.subsample, rng);
        Dataset data = MakeResidualData(train, rows, residual);
        DecisionTree tree = FitStageTree(data, config, rng.Next());
        for (std::size_t i = 0; i < train.num_rows(); ++i) {
            margin[i] += config.learning_rate * tree.Predict(train.Row(i));
        }
        model.AddTree(std::move(tree));
    }
    return model;
}

GradientBoostedModel
TrainGbdtClassifier(const Dataset& train, const GbdtConfig& config)
{
    ValidateConfig(config);
    if (train.task() != Task::kClassification ||
        train.num_classes() != 2 || train.num_rows() == 0) {
        throw InvalidArgument(
            "gbdt classifier: need non-empty binary classification data");
    }

    double positives = 0.0;
    for (std::size_t i = 0; i < train.num_rows(); ++i) {
        positives += train.Label(i);
    }
    double p = std::clamp(
        positives / static_cast<double>(train.num_rows()), 1e-6,
        1.0 - 1e-6);
    const double base = std::log(p / (1.0 - p));  // log-odds prior

    GradientBoostedModel model(Task::kClassification,
                               train.num_features(), base,
                               config.learning_rate);

    std::vector<double> margin(train.num_rows(), base);
    std::vector<double> residual(train.num_rows());
    Rng rng(config.seed);
    for (std::size_t stage = 0; stage < config.num_trees; ++stage) {
        for (std::size_t i = 0; i < train.num_rows(); ++i) {
            // Negative gradient of logistic loss: y - sigmoid(F).
            residual[i] = train.Label(i) - Sigmoid(margin[i]);
        }
        auto rows = SampleRows(train.num_rows(), config.subsample, rng);
        Dataset data = MakeResidualData(train, rows, residual);
        DecisionTree tree = FitStageTree(data, config, rng.Next());
        for (std::size_t i = 0; i < train.num_rows(); ++i) {
            margin[i] += config.learning_rate * tree.Predict(train.Row(i));
        }
        model.AddTree(std::move(tree));
    }
    return model;
}

}  // namespace dbscore

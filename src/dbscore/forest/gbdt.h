/**
 * @file
 * Gradient-boosted decision trees (GBDT).
 *
 * The paper targets "tree ensemble models" generally — random forests in
 * the evaluation, with gradient boosting named alongside (Hummingbird
 * compiles "decision tree, random forest, and gradient boost models").
 * This module adds the boosted variant: stagewise least-squares boosting
 * for regression and logistic-loss boosting for binary classification,
 * reusing the CART tree builder.
 *
 * A trained model is stored and scored only as the exchange ensemble
 * the engines consume (ToTreeEnsemble): leaf values are folded so that
 * the engines' mean-of-trees regression combiner reproduces
 * base + lr * sum(tree outputs), letting every backend (CPU/GPU/FPGA),
 * SQL SCORE and the serving layers score boosted models unchanged.
 * Predict and PredictBatch here are the scalar reference for tests and
 * training-time accuracy, not a serving path.
 */
#ifndef DBSCORE_FOREST_GBDT_H
#define DBSCORE_FOREST_GBDT_H

#include <cstdint>
#include <vector>

#include "dbscore/data/dataset.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/onnx_like.h"

namespace dbscore {

/** GBDT hyperparameters. */
struct GbdtConfig {
    std::size_t num_trees = 100;
    std::size_t max_depth = 6;
    double learning_rate = 0.1;
    std::size_t min_samples_leaf = 1;
    /** Row subsample fraction per stage (stochastic gradient boosting). */
    double subsample = 1.0;
    std::uint64_t seed = 42;
};

/** A trained boosted ensemble. */
class GradientBoostedModel {
 public:
    GradientBoostedModel() = default;

    GradientBoostedModel(Task task, std::size_t num_features,
                         double base_score, double learning_rate);

    Task task() const { return task_; }
    std::size_t num_features() const { return num_features_; }
    double base_score() const { return base_score_; }
    double learning_rate() const { return learning_rate_; }
    std::size_t NumTrees() const { return trees_.size(); }
    const std::vector<DecisionTree>& trees() const { return trees_; }

    void AddTree(DecisionTree tree);

    /** Raw additive score: base + lr * sum of tree outputs. */
    double Margin(const float* row) const;

    /**
     * Final prediction: the margin for regression; class id (margin
     * through a sigmoid, threshold 0.5) for binary classification.
     */
    float Predict(const float* row) const;

    /** Predict over every row of @p data, in row order. */
    std::vector<float> PredictBatch(const Dataset& data) const;

    /** Classification accuracy / regression is invalid. */
    double Accuracy(const Dataset& data) const;

    /**
     * Exports to the engines' exchange format. The ensemble is tagged as
     * regression with leaf values scaled by (num_trees * learning_rate)
     * plus the distributed base score, so mean-of-trees == Margin().
     * Classification consumers threshold the margin at 0.5 after a
     * sigmoid — see MarginToClass().
     */
    TreeEnsemble ToTreeEnsemble() const;

    /** Converts an engine-produced margin to a class id. */
    static int MarginToClass(float margin);

 private:
    Task task_ = Task::kRegression;
    std::size_t num_features_ = 0;
    double base_score_ = 0.0;
    double learning_rate_ = 0.1;
    std::vector<DecisionTree> trees_;
};

/**
 * Least-squares gradient boosting for regression.
 * @throws InvalidArgument on bad config or non-regression data
 */
GradientBoostedModel TrainGbdtRegressor(const Dataset& train,
                                        const GbdtConfig& config);

/**
 * Logistic-loss gradient boosting for binary classification
 * (labels 0/1).
 * @throws InvalidArgument unless the dataset is binary classification
 */
GradientBoostedModel TrainGbdtClassifier(const Dataset& train,
                                         const GbdtConfig& config);

}  // namespace dbscore

#endif  // DBSCORE_FOREST_GBDT_H

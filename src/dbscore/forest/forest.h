/**
 * @file
 * Random forest model: an ensemble of decision trees plus task metadata.
 *
 * Prediction combines per-tree outputs exactly as the paper describes:
 * majority vote for classification (ties broken toward the lowest class id,
 * the convention every engine in this repository follows) and the mean for
 * regression.
 */
#ifndef DBSCORE_FOREST_FOREST_H
#define DBSCORE_FOREST_FOREST_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dbscore/data/dataset.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/tree.h"

namespace dbscore {

/** A trained random forest. */
class RandomForest {
 public:
    RandomForest() = default;

    /**
     * @param task classification or regression
     * @param num_features input arity every row must match
     * @param num_classes classification class count; 0 for regression
     */
    RandomForest(Task task, std::size_t num_features, int num_classes);

    // Value semantics despite the kernel-cache mutex: copies share the
    // (immutable) compiled kernel, never the lock.
    RandomForest(const RandomForest& other);
    RandomForest& operator=(const RandomForest& other);
    RandomForest(RandomForest&& other) noexcept;
    RandomForest& operator=(RandomForest&& other) noexcept;

    /** Invalidates the cached inference kernel. */
    void AddTree(DecisionTree tree);

    Task task() const { return task_; }
    std::size_t num_features() const { return num_features_; }
    int num_classes() const { return num_classes_; }
    std::size_t NumTrees() const { return trees_.size(); }

    const DecisionTree& Tree(std::size_t i) const;
    const std::vector<DecisionTree>& trees() const { return trees_; }

    /**
     * Reference single-row prediction: the ground truth every scoring
     * engine is tested against.
     */
    float Predict(const float* row) const;

    /** Batch prediction over a dataset's rows (see raw overload). */
    std::vector<float> PredictBatch(const Dataset& data) const;

    /**
     * Batch prediction over a raw row-major buffer. Delegates to the
     * cached ForestKernel (built lazily on first use, invalidated by
     * AddTree) whenever the kernel supports the model; predictions are
     * bit-identical to the scalar reference path either way.
     */
    std::vector<float> PredictBatch(const float* rows, std::size_t num_rows,
                                    std::size_t num_cols) const;

    /**
     * Zero-copy batch prediction over a (possibly strided) view:
     * traverses the viewed rows in place.
     */
    std::vector<float> PredictBatch(const RowView& rows) const;

    /**
     * The scalar reference batch path: per-row Predict with chunked
     * ThreadPool parallelism and no compiled kernel. The baseline the
     * kernel is benched and property-tested against.
     */
    std::vector<float> PredictBatchScalar(const float* rows,
                                          std::size_t num_rows,
                                          std::size_t num_cols) const;

    /**
     * The compiled inference plan for the current ensemble: built on
     * first call, cached until the forest mutates, shared by copies.
     * Thread-safe.
     * @throws InvalidArgument when the model is not kernel-compilable
     * (see ForestKernel::Supports)
     */
    std::shared_ptr<const ForestKernel> Kernel() const;

    /** Fraction of rows whose prediction matches the dataset label. */
    double Accuracy(const Dataset& data) const;

    /** Deepest tree depth across the ensemble. */
    std::size_t MaxDepth() const;

    /** Total node count across the ensemble. */
    std::size_t TotalNodes() const;

    /** Validates every tree structurally. @throws ParseError */
    void Validate() const;

 private:
    Task task_ = Task::kClassification;
    std::size_t num_features_ = 0;
    int num_classes_ = 0;
    std::vector<DecisionTree> trees_;

    /** Lazily-built compiled kernel; null until first batch call. */
    mutable std::shared_ptr<const ForestKernel> kernel_;
    mutable std::mutex kernel_mutex_;
};

/**
 * Combines per-tree votes into a final classification using majority vote
 * with lowest-class-id tie breaking. Exposed so accelerator simulators can
 * reuse the exact semantics.
 *
 * @param votes one predicted class id per tree
 * @param num_classes total class count
 */
int MajorityVote(const std::vector<int>& votes, int num_classes);

/**
 * True when classification leaf @p value names a class: it rounds
 * (std::lround, as every predictor does) to an id in [0, num_classes).
 * Model parsers reject any other leaf.
 */
inline bool
LeafIsClassId(float value, int num_classes)
{
    // std::lround rounds halves away from zero, so its result is in
    // [0, num_classes) exactly for values in (-0.5, num_classes - 0.5);
    // NaN fails both comparisons. No lround call, whose result is
    // unspecified for NaN, infinities and values beyond long's range.
    const double v = value;
    return v > -0.5 && v < static_cast<double>(num_classes) - 0.5;
}

}  // namespace dbscore

#endif  // DBSCORE_FOREST_FOREST_H

/**
 * @file
 * Dense tabular dataset container.
 *
 * Features are float32 in row-major order, matching what the paper's
 * pipeline hands to the scoring engines (a Pandas DataFrame converted to a
 * contiguous array). Labels are float so the same container serves
 * classification (label = class id) and regression.
 *
 * Storage is part of the zero-copy data plane (see data/row_block.h): a
 * dataset keeps its feature matrix in refcounted storage that View()
 * shares without copying — a view stays valid even after the dataset
 * is mutated or destroyed (mutation detaches to fresh storage,
 * copy-on-write).
 */
#ifndef DBSCORE_DATA_DATASET_H
#define DBSCORE_DATA_DATASET_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/data/row_block.h"

namespace dbscore {

/** Learning task kind. */
enum class Task {
    kClassification,
    kRegression,
};

/** A dense in-memory dataset. */
class Dataset {
 public:
    Dataset() = default;

    /**
     * @param name dataset name for reports
     * @param task classification or regression
     * @param num_features columns per row
     * @param num_classes class count (classification) or 0 (regression)
     */
    Dataset(std::string name, Task task, std::size_t num_features,
            int num_classes);

    /** Appends one row; @p features must have num_features() entries. */
    void AddRow(const std::vector<float>& features, float label);

    /**
     * Span-style append: @p count features read from @p features.
     * Callers with a reusable buffer avoid the per-row heap vector.
     * @p features must not alias this dataset's own storage (an append
     * can reallocate it).
     */
    void AddRow(const float* features, std::size_t count, float label);

    /**
     * Bulk adoption of pre-built storage. @p values has
     * num_rows * num_features entries; @p labels has num_rows entries.
     */
    void Assign(std::vector<float> values, std::vector<float> labels);

    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    Task task() const { return task_; }
    std::size_t num_rows() const { return labels_.size(); }
    std::size_t num_features() const { return num_features_; }
    int num_classes() const { return num_classes_; }

    /** Pointer to row @p i (num_features() contiguous floats). */
    const float* Row(std::size_t i) const;

    float At(std::size_t row, std::size_t col) const;
    float Label(std::size_t i) const;

    /** Feature storage, row-major. */
    const std::vector<float>& values() const;
    const std::vector<float>& labels() const { return labels_; }

    /**
     * Zero-copy view of the feature matrix. The view shares the
     * refcounted storage, so it remains valid after the dataset
     * mutates (copy-on-write detach) or dies.
     */
    RowView View() const;

    /** Zero-copy view of rows [begin, end). */
    RowView View(std::size_t begin, std::size_t end) const;

    std::vector<std::string>& feature_names() { return feature_names_; }
    const std::vector<std::string>& feature_names() const
    {
        return feature_names_;
    }

    /** Raw feature-matrix footprint in bytes (what gets transferred). */
    std::uint64_t FeatureBytes() const;

    /**
     * Returns a new dataset holding a copy of rows [begin, end).
     * @throws InvalidArgument if the range is out of bounds.
     */
    Dataset Slice(std::size_t begin, std::size_t end) const;

    /** Returns a copy with rows permuted by the given seed. */
    Dataset Shuffled(std::uint64_t seed) const;

 private:
    /**
     * Mutable storage, detaching (counted copy) when a live view still
     * shares the current buffer.
     */
    std::vector<float>& MutableValues();

    std::string name_;
    Task task_ = Task::kClassification;
    std::size_t num_features_ = 0;
    int num_classes_ = 0;
    /** Feature storage; shared with views handed out by View(). */
    std::shared_ptr<std::vector<float>> values_;
    std::vector<float> labels_;
    std::vector<std::string> feature_names_;
};

/** A train/test partition of one dataset. */
struct TrainTestSplit {
    Dataset train;
    Dataset test;
};

/**
 * Splits @p data into train/test by shuffling with @p seed.
 *
 * @param train_fraction in (0, 1)
 */
TrainTestSplit SplitTrainTest(const Dataset& data, double train_fraction,
                              std::uint64_t seed);

}  // namespace dbscore

#endif  // DBSCORE_DATA_DATASET_H

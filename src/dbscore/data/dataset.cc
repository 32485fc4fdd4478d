#include "dbscore/data/dataset.h"

#include <algorithm>
#include <numeric>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"

namespace dbscore {

namespace {

void
ValidateShape(Task task, std::size_t num_features, int num_classes)
{
    if (num_features == 0) {
        throw InvalidArgument("dataset: num_features must be positive");
    }
    if (task == Task::kClassification && num_classes < 2) {
        throw InvalidArgument(
            "dataset: classification requires >= 2 classes");
    }
    if (task == Task::kRegression && num_classes != 0) {
        throw InvalidArgument("dataset: regression must have 0 classes");
    }
}

}  // namespace

Dataset::Dataset(std::string name, Task task, std::size_t num_features,
                 int num_classes)
    : name_(std::move(name)),
      task_(task),
      num_features_(num_features),
      num_classes_(num_classes)
{
    ValidateShape(task, num_features, num_classes);
}

std::vector<float>&
Dataset::MutableValues()
{
    if (values_ == nullptr) {
        values_ = std::make_shared<std::vector<float>>();
    } else if (values_.use_count() > 1) {
        // A live view still shares the current buffer: detach so the
        // view's storage never changes underneath it (copy-on-write).
        RowBlock::NoteCopy(static_cast<std::uint64_t>(values_->size()) *
                           sizeof(float));
        values_ = std::make_shared<std::vector<float>>(*values_);
    }
    return *values_;
}

void
Dataset::AddRow(const std::vector<float>& features, float label)
{
    AddRow(features.data(), features.size(), label);
}

void
Dataset::AddRow(const float* features, std::size_t count, float label)
{
    if (count != num_features_) {
        throw InvalidArgument("dataset: row arity mismatch");
    }
    std::vector<float>& values = MutableValues();
    values.insert(values.end(), features, features + count);
    labels_.push_back(label);
}

void
Dataset::Assign(std::vector<float> values, std::vector<float> labels)
{
    if (values.size() != labels.size() * num_features_) {
        throw InvalidArgument("dataset: assign size mismatch");
    }
    values_ = std::make_shared<std::vector<float>>(std::move(values));
    labels_ = std::move(labels);
}

const float*
Dataset::Row(std::size_t i) const
{
    DBS_ASSERT(i < num_rows());
    return values_->data() + i * num_features_;
}

float
Dataset::At(std::size_t row, std::size_t col) const
{
    DBS_ASSERT(row < num_rows() && col < num_features_);
    return Row(row)[col];
}

float
Dataset::Label(std::size_t i) const
{
    DBS_ASSERT(i < num_rows());
    return labels_[i];
}

const std::vector<float>&
Dataset::values() const
{
    static const std::vector<float> kEmpty;
    return values_ == nullptr ? kEmpty : *values_;
}

RowView
Dataset::View() const
{
    return View(0, num_rows());
}

RowView
Dataset::View(std::size_t begin, std::size_t end) const
{
    if (begin > end || end > num_rows()) {
        throw InvalidArgument("dataset: view out of range");
    }
    if (values_ == nullptr || begin == end) {
        return RowView();
    }
    // Alias the shared vector: the view holds a refcount, so it stays
    // valid after this dataset mutates (detach) or is destroyed.
    std::shared_ptr<const float[]> keepalive(values_, values_->data());
    return RowView(std::move(keepalive),
                   values_->data() + begin * num_features_, end - begin,
                   num_features_, num_features_);
}

std::uint64_t
Dataset::FeatureBytes() const
{
    return static_cast<std::uint64_t>(num_rows()) * num_features_ *
           sizeof(float);
}

Dataset
Dataset::Slice(std::size_t begin, std::size_t end) const
{
    if (begin > end || end > num_rows()) {
        throw InvalidArgument("dataset: slice out of range");
    }
    Dataset out(name_, task_, num_features_, num_classes_);
    out.feature_names_ = feature_names_;
    if (begin < end) {
        const std::vector<float>& values = *values_;
        out.MutableValues().assign(
            values.begin() + begin * num_features_,
            values.begin() + end * num_features_);
    }
    out.labels_.assign(labels_.begin() + begin, labels_.begin() + end);
    return out;
}

Dataset
Dataset::Shuffled(std::uint64_t seed) const
{
    std::vector<std::size_t> perm(num_rows());
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(seed);
    rng.Shuffle(perm);

    Dataset out(name_, task_, num_features_, num_classes_);
    out.feature_names_ = feature_names_;
    std::vector<float>& values = out.MutableValues();
    values.reserve(num_rows() * num_features_);
    out.labels_.reserve(labels_.size());
    for (std::size_t i : perm) {
        const float* row = Row(i);
        values.insert(values.end(), row, row + num_features_);
        out.labels_.push_back(labels_[i]);
    }
    return out;
}

TrainTestSplit
SplitTrainTest(const Dataset& data, double train_fraction, std::uint64_t seed)
{
    if (train_fraction <= 0.0 || train_fraction >= 1.0) {
        throw InvalidArgument("split: train_fraction must be in (0, 1)");
    }
    Dataset shuffled = data.Shuffled(seed);
    auto cut = static_cast<std::size_t>(
        static_cast<double>(data.num_rows()) * train_fraction);
    cut = std::clamp<std::size_t>(cut, 1, data.num_rows() - 1);
    return TrainTestSplit{shuffled.Slice(0, cut),
                          shuffled.Slice(cut, data.num_rows())};
}

}  // namespace dbscore

#include "dbscore/forest/forest.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/forest/forest_kernel.h"

namespace dbscore {

RandomForest::RandomForest(Task task, std::size_t num_features,
                           int num_classes)
    : task_(task), num_features_(num_features), num_classes_(num_classes)
{
    if (num_features == 0) {
        throw InvalidArgument("forest: num_features must be positive");
    }
    if (task == Task::kClassification && num_classes < 2) {
        throw InvalidArgument("forest: classification needs >= 2 classes");
    }
    if (task == Task::kRegression && num_classes != 0) {
        throw InvalidArgument("forest: regression must have 0 classes");
    }
}

RandomForest::RandomForest(const RandomForest& other)
    : task_(other.task_),
      num_features_(other.num_features_),
      num_classes_(other.num_classes_),
      trees_(other.trees_)
{
    std::lock_guard<std::mutex> lock(other.kernel_mutex_);
    kernel_ = other.kernel_;
}

RandomForest&
RandomForest::operator=(const RandomForest& other)
{
    if (this != &other) {
        task_ = other.task_;
        num_features_ = other.num_features_;
        num_classes_ = other.num_classes_;
        trees_ = other.trees_;
        std::shared_ptr<const ForestKernel> kernel;
        {
            std::lock_guard<std::mutex> lock(other.kernel_mutex_);
            kernel = other.kernel_;
        }
        std::lock_guard<std::mutex> lock(kernel_mutex_);
        kernel_ = std::move(kernel);
    }
    return *this;
}

RandomForest::RandomForest(RandomForest&& other) noexcept
    : task_(other.task_),
      num_features_(other.num_features_),
      num_classes_(other.num_classes_),
      trees_(std::move(other.trees_))
{
    std::lock_guard<std::mutex> lock(other.kernel_mutex_);
    kernel_ = std::move(other.kernel_);
}

RandomForest&
RandomForest::operator=(RandomForest&& other) noexcept
{
    if (this != &other) {
        task_ = other.task_;
        num_features_ = other.num_features_;
        num_classes_ = other.num_classes_;
        trees_ = std::move(other.trees_);
        std::shared_ptr<const ForestKernel> kernel;
        {
            std::lock_guard<std::mutex> lock(other.kernel_mutex_);
            kernel = std::move(other.kernel_);
        }
        std::lock_guard<std::mutex> lock(kernel_mutex_);
        kernel_ = std::move(kernel);
    }
    return *this;
}

void
RandomForest::AddTree(DecisionTree tree)
{
    if (tree.Empty()) {
        throw InvalidArgument("forest: cannot add an empty tree");
    }
    trees_.push_back(std::move(tree));
    // The compiled plan no longer matches the ensemble.
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    kernel_.reset();
}

std::shared_ptr<const ForestKernel>
RandomForest::Kernel() const
{
    std::lock_guard<std::mutex> lock(kernel_mutex_);
    if (kernel_ == nullptr) {
        kernel_ = std::make_shared<const ForestKernel>(*this);
    }
    return kernel_;
}

const DecisionTree&
RandomForest::Tree(std::size_t i) const
{
    DBS_ASSERT(i < trees_.size());
    return trees_[i];
}

int
MajorityVote(const std::vector<int>& votes, int num_classes)
{
    DBS_ASSERT(num_classes >= 2);
    DBS_ASSERT(!votes.empty());
    std::vector<int> counts(static_cast<std::size_t>(num_classes), 0);
    for (int v : votes) {
        DBS_ASSERT(v >= 0 && v < num_classes);
        ++counts[static_cast<std::size_t>(v)];
    }
    int best = 0;
    for (int c = 1; c < num_classes; ++c) {
        // Strict > keeps the lowest class id on ties.
        if (counts[static_cast<std::size_t>(c)] >
            counts[static_cast<std::size_t>(best)]) {
            best = c;
        }
    }
    return best;
}

namespace {

/** Classes a scalar Predict call counts on the stack, not the heap. */
constexpr int kStackVoteClasses = 32;

}  // namespace

float
RandomForest::Predict(const float* row) const
{
    DBS_ASSERT_MSG(!trees_.empty(), "predict on an untrained forest");
    if (task_ == Task::kRegression) {
        double sum = 0.0;
        for (const auto& tree : trees_) {
            sum += tree.Predict(row);
        }
        return static_cast<float>(sum / static_cast<double>(trees_.size()));
    }
    if (num_classes_ <= kStackVoteClasses) {
        // Common case: count votes in a fixed stack buffer instead of
        // heap-allocating a vote vector per row.
        int counts[kStackVoteClasses] = {0};
        for (const auto& tree : trees_) {
            const int v = static_cast<int>(std::lround(tree.Predict(row)));
            DBS_ASSERT(v >= 0 && v < num_classes_);
            ++counts[v];
        }
        int best = 0;
        for (int c = 1; c < num_classes_; ++c) {
            // Strict > keeps the lowest class id on ties.
            if (counts[c] > counts[best]) {
                best = c;
            }
        }
        return static_cast<float>(best);
    }
    std::vector<int> votes;
    votes.reserve(trees_.size());
    for (const auto& tree : trees_) {
        votes.push_back(static_cast<int>(std::lround(tree.Predict(row))));
    }
    return static_cast<float>(MajorityVote(votes, num_classes_));
}

std::vector<float>
RandomForest::PredictBatchScalar(const float* rows, std::size_t num_rows,
                                 std::size_t num_cols) const
{
    if (num_cols != num_features_) {
        throw InvalidArgument("forest: row arity mismatch");
    }
    std::vector<float> out(num_rows);
    auto worker = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            out[i] = Predict(rows + i * num_cols);
        }
    };
    if (num_rows >= kParallelRowCutoff) {
        ThreadPool::Shared().ParallelForChunked(num_rows, worker);
    } else {
        worker(0, num_rows);
    }
    return out;
}

std::vector<float>
RandomForest::PredictBatch(const float* rows, std::size_t num_rows,
                           std::size_t num_cols) const
{
    if (num_cols != num_features_) {
        throw InvalidArgument("forest: row arity mismatch");
    }
    if (!ForestKernel::Supports(*this)) {
        return PredictBatchScalar(rows, num_rows, num_cols);
    }
    return Kernel()->Predict(rows, num_rows, num_cols);
}

std::vector<float>
RandomForest::PredictBatch(const RowView& rows) const
{
    if (rows.empty()) {
        return {};
    }
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest: row arity mismatch");
    }
    if (!ForestKernel::Supports(*this)) {
        if (rows.contiguous()) {
            return PredictBatchScalar(rows.data(), rows.rows(),
                                      num_features_);
        }
        std::vector<float> out(rows.rows());
        for (std::size_t i = 0; i < rows.rows(); ++i) {
            out[i] = Predict(rows.Row(i));
        }
        return out;
    }
    return Kernel()->Predict(rows);
}

std::vector<float>
RandomForest::PredictBatch(const Dataset& data) const
{
    return PredictBatch(data.View());
}

double
RandomForest::Accuracy(const Dataset& data) const
{
    DBS_ASSERT(data.num_rows() > 0);
    std::vector<float> preds = PredictBatch(data);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == data.Label(i)) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(preds.size());
}

std::size_t
RandomForest::MaxDepth() const
{
    std::size_t depth = 0;
    for (const auto& tree : trees_) {
        depth = std::max(depth, tree.Depth());
    }
    return depth;
}

std::size_t
RandomForest::TotalNodes() const
{
    std::size_t nodes = 0;
    for (const auto& tree : trees_) {
        nodes += tree.NumNodes();
    }
    return nodes;
}

void
RandomForest::Validate() const
{
    if (trees_.empty()) {
        throw ParseError("forest: no trees");
    }
    for (const auto& tree : trees_) {
        tree.Validate(num_features_);
    }
}

}  // namespace dbscore

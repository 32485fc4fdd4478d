#include "dbscore/fpgasim/inference_engine.h"

#include <algorithm>
#include <cmath>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/fault/fault.h"

namespace dbscore {

namespace {

/** Cycles the input streamer spends delivering one record. */
std::uint64_t
StreamCycles(const FpgaSpec& spec, std::size_t num_features)
{
    const auto width =
        static_cast<std::uint64_t>(spec.stream_floats_per_cycle);
    return std::max<std::uint64_t>(1, (num_features + width - 1) / width);
}

}  // namespace

std::uint64_t
FpgaModelPlan::Cycles(const FpgaSpec& spec, std::uint64_t num_records,
                      std::size_t num_features) const
{
    const std::uint64_t per_pass =
        static_cast<std::uint64_t>(spec.pipeline_fill_cycles) +
        num_records * StreamCycles(spec, num_features);
    return passes * per_pass;
}

FpgaModelPlan
PlanFpgaPasses(const FpgaSpec& spec, std::size_t num_trees)
{
    // BRAM footprint is counted at spec.node_bytes per node (16 for the
    // paper's float words, less for quantized formats) even though the
    // functional images always hold floats.
    const std::uint64_t per_tree =
        FullTreeSlots(static_cast<std::size_t>(spec.max_tree_depth)) *
        static_cast<std::uint64_t>(spec.node_bytes);
    const auto pes = static_cast<std::uint64_t>(spec.num_pes);
    const std::uint64_t widest_pass =
        std::min<std::uint64_t>(num_trees, pes);

    FpgaModelPlan plan;
    plan.passes = (num_trees + pes - 1) / pes;
    plan.model_bytes = num_trees * per_tree;
    plan.bram_bytes = widest_pass * per_tree + spec.result_buffer_bytes;
    if (plan.bram_bytes > spec.bram_bytes) {
        throw CapacityError(StrFormat(
            "fpga: model needs %s of BRAM but only %s is available",
            HumanBytes(plan.bram_bytes).c_str(),
            HumanBytes(spec.bram_bytes).c_str()));
    }
    return plan;
}

FpgaModelPlan
PlanFpgaModel(const FpgaSpec& spec, const RandomForest& forest)
{
    const auto max_depth = static_cast<std::size_t>(spec.max_tree_depth);
    for (const auto& tree : forest.trees()) {
        if (tree.Depth() > max_depth) {
            throw CapacityError(StrFormat(
                "fpga: tree depth %zu exceeds the supported %d levels; "
                "deeper trees must be processed by the CPU",
                tree.Depth(), spec.max_tree_depth));
        }
    }
    return PlanFpgaPasses(spec, forest.NumTrees());
}

FpgaInferenceEngine::FpgaInferenceEngine(const FpgaSpec& spec) : spec_(spec)
{
    if (spec.num_pes <= 0 || spec.clock_hz <= 0.0 ||
        spec.stream_floats_per_cycle <= 0) {
        throw InvalidArgument("fpga: bad device parameters");
    }
}

void
FpgaInferenceEngine::LoadModel(const RandomForest& forest)
{
    const FpgaModelPlan plan = PlanFpgaModel(spec_, forest);
    const auto max_depth = static_cast<std::size_t>(spec_.max_tree_depth);
    std::vector<TreeMemoryImage> images;
    images.reserve(forest.NumTrees());
    for (const auto& tree : forest.trees()) {
        images.push_back(LayoutTree(tree, max_depth));
    }

    task_ = forest.task();
    num_classes_ = forest.num_classes();
    num_features_ = forest.num_features();
    plan_ = plan;
    images_ = std::move(images);
}

std::uint64_t
FpgaInferenceEngine::NumPasses() const
{
    DBS_ASSERT(loaded());
    return plan_.passes;
}

std::uint64_t
FpgaInferenceEngine::ModelBytes() const
{
    DBS_ASSERT(loaded());
    return plan_.model_bytes;
}

std::uint64_t
FpgaInferenceEngine::BramBytesUsed() const
{
    DBS_ASSERT(loaded());
    return plan_.bram_bytes;
}

std::uint64_t
FpgaInferenceEngine::StreamCyclesPerRecord(std::size_t num_features) const
{
    return StreamCycles(spec_, num_features);
}

std::uint64_t
FpgaInferenceEngine::CyclesFor(std::uint64_t num_records,
                               std::size_t num_features) const
{
    DBS_ASSERT(loaded());
    return plan_.Cycles(spec_, num_records, num_features);
}

std::vector<float>
FpgaInferenceEngine::Score(const float* rows, std::size_t num_rows,
                           std::size_t num_cols,
                           FpgaRunReport* report) const
{
    if (!loaded()) {
        throw InvalidArgument("fpga: no model loaded");
    }
    if (num_cols != num_features_) {
        throw InvalidArgument("fpga: row arity mismatch");
    }

    // Programming the engine (CSR setup) happens before any record
    // streams in; a setup fault aborts the run before scoring.
    fault::CheckSite(fault::FaultSite::kFpgaSetup);

    std::vector<float> preds(num_rows);
    const bool classify = task_ == Task::kClassification;

    auto worker = [&](std::size_t begin, std::size_t end) {
        std::vector<int> votes;
        for (std::size_t r = begin; r < end; ++r) {
            const float* row = rows + r * num_cols;
            votes.clear();
            double sum = 0.0;
            for (const auto& image : images_) {
                float value = WalkTreeImage(image, row);
                if (classify) {
                    votes.push_back(static_cast<int>(std::lround(value)));
                } else {
                    sum += value;
                }
            }
            preds[r] = classify
                ? static_cast<float>(MajorityVote(votes, num_classes_))
                : static_cast<float>(
                      sum / static_cast<double>(images_.size()));
        }
    };
    if (num_rows >= 4096) {
        ThreadPool::Shared().ParallelForChunked(num_rows, worker);
    } else {
        worker(0, num_rows);
    }

    // The completion interrupt is the last thing the device does; a
    // fault here loses the finished results, which is what makes
    // completion faults as expensive as the paper's interrupt cost
    // ordering suggests.
    fault::CheckSite(fault::FaultSite::kFpgaCompletion);

    if (report != nullptr) {
        report->passes = NumPasses();
        report->stream_cycles_per_record = StreamCyclesPerRecord(num_cols);
        report->total_cycles = CyclesFor(num_rows, num_cols);
    }
    return preds;
}

}  // namespace dbscore

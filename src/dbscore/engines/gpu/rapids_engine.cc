#include "dbscore/engines/gpu/rapids_engine.h"

#include <algorithm>

#include "dbscore/common/error.h"

namespace dbscore {

namespace {

/** RAPIDS FIL's cost model for one model. */
class RapidsCostCard final : public CostCard {
 public:
    RapidsCostCard(const GpuDeviceModel& device, const RapidsParams& params,
                   const ModelStats& stats)
        : device_(device), params_(params), stats_(stats)
    {
    }

    OffloadBreakdown
    Estimate(std::size_t num_rows) const override
    {
        const double n = static_cast<double>(num_rows);
        const std::uint64_t data_bytes =
            static_cast<std::uint64_t>(num_rows) * stats_.num_features *
            sizeof(float);
        const double model_bytes =
            static_cast<double>(stats_.total_nodes) * params_.node_bytes;
        const double avg_path = std::max(1.0, stats_.avg_path_length);
        const double visits =
            n * static_cast<double>(stats_.num_trees) * avg_path;

        OffloadBreakdown b;
        b.preprocessing = params_.preproc_fixed +
            TransferTime(data_bytes, params_.cudf_conversion_bw);
        b.input_transfer =
            device_.HostToDevice(data_bytes) +
            device_.HostToDevice(static_cast<std::uint64_t>(model_bytes));
        b.setup = device_.spec().kernel_launch;
        b.compute = device_.TraversalKernelTime(visits, avg_path, model_bytes);
        b.completion_signal = device_.spec().sync_latency;
        b.result_transfer =
            device_.DeviceToHost(static_cast<std::uint64_t>(num_rows) *
                                 sizeof(float));
        b.software_overhead = params_.software_overhead;
        return b;
    }

 private:
    GpuDeviceModel device_;
    RapidsParams params_;
    ModelStats stats_;
};

}  // namespace

RapidsFilEngine::RapidsFilEngine(const GpuDeviceModel& device,
                                 const RapidsParams& params)
    : device_(device), params_(params)
{
}

std::unique_ptr<const CostCard>
RapidsFilEngine::MakeCostCard(const RandomForest& forest,
                              const ModelStats& stats) const
{
    if (forest.task() == Task::kClassification && forest.num_classes() > 2) {
        throw CapacityError(
            "GPU_RAPIDS: only binary classifiers are supported");
    }
    return std::make_unique<RapidsCostCard>(device_, params_, stats);
}

void
RapidsFilEngine::LoadModel(const TreeEnsemble& model, const ModelStats& stats)
{
    RandomForest forest = model.ToForest();
    set_card(MakeCostCard(forest, stats));
    forest_ = std::move(forest);
    num_features_ = stats.num_features;
}

ScoreResult
RapidsFilEngine::Score(const float* rows, std::size_t num_rows,
                       std::size_t num_cols)
{
    RequireLoaded();
    if (num_cols != num_features_) {
        throw InvalidArgument(Name() + ": row arity mismatch");
    }
    ScoreResult result;
    // Data/model DMA in, kernel launch, result DMA out — the fault
    // sites one GPU offload crosses, in operation order.
    device_.CheckDmaFault();
    device_.CheckKernelLaunchFault();
    result.predictions = forest_.PredictBatch(rows, num_rows, num_cols);
    device_.CheckDmaFault();
    result.breakdown = Estimate(num_rows);
    TraceOffloadStages(result.breakdown);
    return result;
}

}  // namespace dbscore

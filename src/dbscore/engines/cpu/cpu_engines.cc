#include "dbscore/engines/cpu/cpu_engines.h"

#include <algorithm>

#include "dbscore/common/error.h"

namespace dbscore {

namespace {

/** The CpuSpec constants one framework's cost model reads. */
struct FrameworkCosts {
    double node_bytes;
    double per_node_ns;
    double per_value_ns;
    double per_record_ns;
    double thread_exponent;
    /** Per-call overhead; ONNX adds a fan-out cost per extra thread. */
    SimTime fixed;
};

FrameworkCosts
CostsOf(BackendKind kind, const CpuSpec& s, int threads)
{
    if (kind == BackendKind::kCpuSklearn) {
        return {s.sklearn_node_bytes,    s.sklearn_per_node_ns,
                s.sklearn_per_value_ns,  s.sklearn_per_record_ns,
                s.sklearn_thread_exponent, s.sklearn_fixed};
    }
    return {s.onnx_node_bytes,    s.onnx_per_node_ns,
            s.onnx_per_value_ns,  s.onnx_per_record_ns,
            s.onnx_thread_exponent,
            s.onnx_fixed +
                s.onnx_thread_spawn * static_cast<double>(threads - 1)};
}

/** Both CPU frameworks' cost model for one model (see cpu_spec.h). */
class CpuCostCard final : public CostCard {
 public:
    CpuCostCard(BackendKind kind, const CpuSpec& spec, int threads,
                const ModelStats& stats)
        : spec_(spec),
          costs_(CostsOf(kind, spec, threads)),
          threads_(threads),
          stats_(stats)
    {
    }

    OffloadBreakdown
    Estimate(std::size_t num_rows) const override
    {
        const CpuSpec& s = spec_;
        const ModelStats& m = stats_;

        const double model_bytes =
            static_cast<double>(m.total_nodes) * costs_.node_bytes;
        const double miss = LlcMissFraction(
            model_bytes, static_cast<double>(s.llc_bytes),
            s.llc_miss_asymptote);
        const double per_node_ns =
            costs_.per_node_ns + miss * s.llc_miss_penalty_ns;

        // Mean traversal edges per tree, >= 1 for timing.
        const double avg_path = std::max(1.0, m.avg_path_length);
        const double per_record_ns =
            costs_.per_value_ns * static_cast<double>(m.num_features) +
            costs_.per_record_ns + DataMissPerRecordNs(num_rows) +
            static_cast<double>(m.num_trees) * avg_path * per_node_ns;

        const double efficiency =
            ThreadEfficiency(threads_, costs_.thread_exponent);

        OffloadBreakdown b;
        b.software_overhead = costs_.fixed;
        b.compute = SimTime::Nanos(
            static_cast<double>(num_rows) * per_record_ns / efficiency);
        return b;
    }

 private:
    /**
     * Per-record cost of streaming the batch feature matrix: once it
     * spills the LLC, every feature read pays a DRAM-latency fraction.
     */
    double
    DataMissPerRecordNs(std::size_t num_rows) const
    {
        const double batch_bytes = static_cast<double>(num_rows) *
                                   static_cast<double>(stats_.num_features) *
                                   sizeof(float);
        const double miss = LlcMissFraction(
            batch_bytes, static_cast<double>(spec_.llc_bytes),
            spec_.llc_miss_asymptote);
        return static_cast<double>(stats_.num_features) * miss *
               spec_.data_miss_penalty_ns;
    }

    CpuSpec spec_;
    FrameworkCosts costs_;
    int threads_;
    ModelStats stats_;
};

}  // namespace

CpuEngineBase::CpuEngineBase(const CpuSpec& spec, int threads)
    : spec_(spec), threads_(threads == 0 ? spec.max_threads : threads)
{
    if (threads_ < 1 || threads_ > spec_.max_threads) {
        throw InvalidArgument("cpu engine: thread count out of range");
    }
}

std::unique_ptr<const CostCard>
CpuEngineBase::MakeCostCard(const RandomForest& /*forest*/,
                            const ModelStats& stats) const
{
    return std::make_unique<CpuCostCard>(kind(), spec_, threads_, stats);
}

void
CpuEngineBase::LoadModel(const TreeEnsemble& model, const ModelStats& stats)
{
    forest_ = model.ToForest();
    num_features_ = stats.num_features;
    set_card(MakeCostCard(forest_, stats));
}

ScoreResult
CpuEngineBase::Score(const float* rows, std::size_t num_rows,
                     std::size_t num_cols)
{
    RequireLoaded();
    if (num_cols != num_features_) {
        throw InvalidArgument(Name() + ": row arity mismatch");
    }
    ScoreResult result;
    result.predictions = forest_.PredictBatch(rows, num_rows, num_cols);
    result.breakdown = Estimate(num_rows);
    TraceOffloadStages(result.breakdown);
    return result;
}

SklearnCpuEngine::SklearnCpuEngine(const CpuSpec& spec, int threads)
    : CpuEngineBase(spec, threads)
{
}

OnnxCpuEngine::OnnxCpuEngine(const CpuSpec& spec, int threads)
    : CpuEngineBase(spec, threads)
{
}

}  // namespace dbscore

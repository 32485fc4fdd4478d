#include "dbscore/engines/fpga/fpga_engine.h"

#include <algorithm>

#include "dbscore/common/error.h"

namespace dbscore {

namespace {

/** Adjusts the device spec's node width for a quantized deployment. */
FpgaSpec
ApplyQuantization(FpgaSpec spec, const FpgaOffloadParams& params)
{
    if (params.quantization.has_value()) {
        spec.node_bytes = static_cast<int>(
            QuantizedNodeBytes(*params.quantization));
    }
    return spec;
}

/** The FPGA offload path's cost model for one model. */
class FpgaCostCard final : public CostCard {
 public:
    FpgaCostCard(const FpgaSpec& spec, const PcieLink& link,
                 const FpgaOffloadParams& params, std::size_t num_features,
                 const FpgaModelPlan& plan)
        : spec_(spec),
          link_(link),
          params_(params),
          num_features_(num_features),
          plan_(plan)
    {
    }

    OffloadBreakdown
    Estimate(std::size_t num_rows) const override
    {
        const double passes = static_cast<double>(plan_.passes);

        OffloadBreakdown b;
        // Model image into the PEs' tree memories; records themselves
        // are streamed during scoring (overlap), matching the paper —
        // unless the overlap ablation turns that off, in which case
        // every pass pays an up-front record transfer.
        b.input_transfer = link_.TransferLatency(plan_.model_bytes);
        if (!params_.overlap_record_streaming) {
            const std::uint64_t record_bytes =
                static_cast<std::uint64_t>(num_rows) * num_features_ *
                sizeof(float);
            b.input_transfer +=
                link_.TransferLatency(record_bytes) * passes;
        }
        b.setup = params_.csr.WriteMany(static_cast<std::uint64_t>(
                      params_.setup_csr_writes)) *
                  passes;
        b.compute = SimTime::Cycles(
            static_cast<double>(
                plan_.Cycles(spec_, num_rows, num_features_)),
            spec_.clock_hz);
        b.completion_signal = params_.interrupt.latency * passes;

        const std::uint64_t result_bytes =
            static_cast<std::uint64_t>(num_rows) * sizeof(float);
        const std::uint64_t chunks = std::max<std::uint64_t>(
            1, (result_bytes + spec_.result_buffer_bytes - 1) /
                   spec_.result_buffer_bytes);
        b.result_transfer =
            link_.ChunkedTransferLatency(result_bytes, chunks);
        b.software_overhead = params_.software_overhead;
        return b;
    }

 private:
    FpgaSpec spec_;
    PcieLink link_;
    FpgaOffloadParams params_;
    std::size_t num_features_;
    FpgaModelPlan plan_;
};

}  // namespace

FpgaScoringEngine::FpgaScoringEngine(const FpgaSpec& fpga_spec,
                                     const PcieLinkSpec& link_spec,
                                     const FpgaOffloadParams& params)
    : engine_(ApplyQuantization(fpga_spec, params)),
      link_(link_spec),
      params_(params)
{
}

std::unique_ptr<const CostCard>
FpgaScoringEngine::MakeCostCard(const RandomForest& forest,
                                const ModelStats& stats) const
{
    // Quantization rewrites thresholds, never the tree shapes, so the
    // float forest plans exactly like the quantized one.
    return std::make_unique<FpgaCostCard>(
        engine_.spec(), link_, params_, stats.num_features,
        PlanFpgaModel(engine_.spec(), forest));
}

void
FpgaScoringEngine::LoadModel(const TreeEnsemble& model,
                             const ModelStats& stats)
{
    RandomForest forest = model.ToForest();
    auto card = MakeCostCard(forest, stats);
    if (params_.quantization.has_value()) {
        forest = QuantizeForest(forest, *params_.quantization);
    }
    engine_.LoadModel(forest);
    set_card(std::move(card));
}

ScoreResult
FpgaScoringEngine::Score(const float* rows, std::size_t num_rows,
                         std::size_t num_cols)
{
    RequireLoaded();
    ScoreResult result;
    FpgaRunReport report;
    // Operation order of an offload: model/record DMA in, then the
    // device run (setup + completion sites inside), then result DMA
    // out. Estimate() stays fault-free for the planner.
    link_.CheckDmaFault();
    result.predictions =
        engine_.Score(rows, num_rows, num_cols, &report);
    link_.CheckDmaFault();
    result.breakdown = Estimate(num_rows);
    TraceOffloadStages(result.breakdown);
    return result;
}

}  // namespace dbscore

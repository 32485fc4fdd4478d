/**
 * @file
 * FPGA scoring engine: the fpgasim inference engine wrapped with the
 * paper's full offload path (Section IV-B):
 *
 *   input transfer (model over PCIe) -> FPGA setup (CSR writes) ->
 *   scoring (pipelined PEs) -> completion signal (interrupt) ->
 *   result transfer (PCIe, chunked by the on-chip result buffer) ->
 *   plus host-side software overhead for the driver/API calls.
 *
 * Record transfer overlaps scoring (the paper's streaming design), so the
 * input-transfer component only covers the model, exactly as Figure 7
 * accounts it.
 */
#ifndef DBSCORE_ENGINES_FPGA_FPGA_ENGINE_H
#define DBSCORE_ENGINES_FPGA_FPGA_ENGINE_H

#include <optional>

#include "dbscore/engines/scoring_engine.h"
#include "dbscore/fpgasim/inference_engine.h"
#include "dbscore/fpgasim/quantize.h"
#include "dbscore/pcie/pcie.h"

namespace dbscore {

/** Host-side offload cost parameters for the FPGA path. */
struct FpgaOffloadParams {
    /** Driver/API call overhead per scoring invocation. */
    SimTime software_overhead = SimTime::Millis(2.6);
    /** CSRs programmed per engine pass. */
    int setup_csr_writes = 8;
    /**
     * When true (the paper's design), record streaming overlaps scoring
     * and input transfer covers only the model. When false, record bytes
     * are transferred up front each pass — the overlap ablation.
     */
    bool overlap_record_streaming = true;
    /**
     * Optional fixed-point tree memory. When set, the model's thresholds
     * (and regression leaves) are quantized at load time and BRAM /
     * transfer accounting uses the narrower node words — predictions
     * then match the *quantized* model. The paper's configuration uses
     * full 32-bit words (nullopt).
     */
    std::optional<QuantizationSpec> quantization;
    CsrModel csr;
    InterruptModel interrupt;
};

/** The paper's FPGA backend. */
class FpgaScoringEngine : public ScoringEngine {
 public:
    FpgaScoringEngine(const FpgaSpec& fpga_spec,
                      const PcieLinkSpec& link_spec,
                      const FpgaOffloadParams& params);

    BackendKind kind() const override { return BackendKind::kFpga; }

    /**
     * @throws CapacityError for trees deeper than 10 levels or models
     *         that do not fit in BRAM
     */
    void LoadModel(const TreeEnsemble& model,
                   const ModelStats& stats) override;

    /**
     * The card is the pass count and image bytes of PlanFpgaModel (the
     * depth and BRAM rules) at this deployment's node width.
     */
    std::unique_ptr<const CostCard> MakeCostCard(
        const RandomForest& forest, const ModelStats& stats) const override;

    ScoreResult Score(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) override;

    /** Access to the underlying device simulator (for benches/tests). */
    const FpgaInferenceEngine& device() const { return engine_; }

 private:
    FpgaInferenceEngine engine_;
    PcieLink link_;
    FpgaOffloadParams params_;
};

}  // namespace dbscore

#endif  // DBSCORE_ENGINES_FPGA_FPGA_ENGINE_H

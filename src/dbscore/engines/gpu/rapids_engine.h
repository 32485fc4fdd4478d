/**
 * @file
 * RAPIDS-FIL-style GPU scoring engine.
 *
 * Mirrors the paper's GPU-RAPIDS configuration: each thread block scores
 * one sample, trees are cyclically distributed among threads, and control
 * divergence grows with tree depth. Two behaviours from the paper are
 * modeled explicitly:
 *  - a fixed-plus-linear NumPy -> cuDF DataFrame conversion step (~120 ms
 *    at 1M HIGGS rows) that only amortizes at large record counts;
 *  - the paper's RAPIDS path supports binary classifiers only, so the
 *    engine rejects multi-class models (which is why the paper's IRIS
 *    plots have no RAPIDS series).
 */
#ifndef DBSCORE_ENGINES_GPU_RAPIDS_ENGINE_H
#define DBSCORE_ENGINES_GPU_RAPIDS_ENGINE_H

#include "dbscore/engines/scoring_engine.h"
#include "dbscore/forest/forest.h"
#include "dbscore/gpusim/gpu_device.h"

namespace dbscore {

/** RAPIDS framework cost parameters. */
struct RapidsParams {
    /** Fixed NumPy -> cuDF conversion cost. */
    SimTime preproc_fixed = SimTime::Millis(95.0);
    /** Conversion throughput for the variable part (bytes/s). */
    double cudf_conversion_bw = 4e9;
    /** Python/framework dispatch per scoring call. */
    SimTime software_overhead = SimTime::Micros(200.0);
    /** Bytes per FIL tree node resident on the device. */
    double node_bytes = 16.0;
};

/** GPU-RAPIDS scoring engine. */
class RapidsFilEngine : public ScoringEngine {
 public:
    RapidsFilEngine(const GpuDeviceModel& device, const RapidsParams& params);

    BackendKind kind() const override { return BackendKind::kGpuRapids; }

    /**
     * @throws CapacityError for classification models with > 2 classes
     *         (the paper's RAPIDS path is binary-only)
     */
    void LoadModel(const TreeEnsemble& model,
                   const ModelStats& stats) override;

    /** The card is the ModelStats, after the binary/regression check. */
    std::unique_ptr<const CostCard> MakeCostCard(
        const RandomForest& forest, const ModelStats& stats) const override;

    ScoreResult Score(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) override;

 private:
    GpuDeviceModel device_;
    RapidsParams params_;
    RandomForest forest_;
    std::size_t num_features_ = 0;
};

}  // namespace dbscore

#endif  // DBSCORE_ENGINES_GPU_RAPIDS_ENGINE_H

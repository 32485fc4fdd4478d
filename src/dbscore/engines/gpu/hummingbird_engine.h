/**
 * @file
 * Hummingbird-style GPU scoring engine: tree ensembles compiled to tensor
 * programs (Nakandala et al., OSDI 2020), executed on the tensor substrate
 * for functional results and priced on the GPU device model.
 *
 * Two of Hummingbird's compilation strategies are implemented:
 *
 *  - GEMM: each tree becomes five tensor ops
 *      S = gather(X, features);  T = (S <= B);
 *      U = T x C;  H = (U == D);  out = H x E
 *    where C encodes leaf/ancestor relations (+1 left subtree, -1 right)
 *    and D counts left-edges per root-to-leaf path. Exact for any tree but
 *    does O(n * internal * leaves) redundant work — the paper's "may do
 *    redundant computations" trade.
 *
 *  - PerfectTreeTraversal: trees padded to perfect depth-D trees; all
 *    trees advance level-by-level with gather/compare kernels over
 *    (rows x trees) index tensors.
 *
 * kAuto picks GEMM for small trees and PerfectTreeTraversal otherwise,
 * like Hummingbird's own heuristic.
 */
#ifndef DBSCORE_ENGINES_GPU_HUMMINGBIRD_ENGINE_H
#define DBSCORE_ENGINES_GPU_HUMMINGBIRD_ENGINE_H

#include <cstdint>
#include <vector>

#include "dbscore/engines/scoring_engine.h"
#include "dbscore/gpusim/gpu_device.h"
#include "dbscore/tensor/matrix.h"
#include "dbscore/tensor/ops.h"

namespace dbscore {

/** Compilation strategy selection. */
enum class HbStrategy {
    kAuto,
    kGemm,
    kPerfectTreeTraversal,
};

/** Hummingbird framework cost parameters. */
struct HummingbirdParams {
    HbStrategy strategy = HbStrategy::kAuto;
    /** kAuto uses GEMM when every tree has <= this many internal nodes. */
    std::size_t gemm_max_internal_nodes = 32;
    /** Framework (tensor-runtime) dispatch per scoring call. */
    SimTime software_overhead = SimTime::Millis(1.2);
};

/** One tree compiled to the GEMM strategy. */
struct GemmCompiledTree {
    std::vector<std::int32_t> features;  ///< per internal node
    Matrix thresholds;                   ///< B: 1 x internal
    Matrix path_matrix;                  ///< C: internal x leaves (+1/-1/0)
    Matrix left_counts;                  ///< D: 1 x leaves
    Matrix leaf_map;                     ///< E: leaves x outputs
};

/** One tree padded to a perfect tree for level-synchronous traversal. */
struct PerfectCompiledTree {
    std::size_t depth = 0;
    /** Heap-ordered internal slots; -1 marks a pass-through (leaf above). */
    std::vector<std::int32_t> features;
    std::vector<float> thresholds;
    /** Value per depth-D leaf slot. */
    std::vector<float> leaf_values;
};

/** Hummingbird's cost card; defined in hummingbird_engine.cc. */
class HbCostCard;

/** GPU-HB scoring engine. */
class HummingbirdGpuEngine : public ScoringEngine {
 public:
    HummingbirdGpuEngine(const GpuDeviceModel& device,
                         const HummingbirdParams& params);

    BackendKind kind() const override { return BackendKind::kGpuHummingbird; }

    void LoadModel(const TreeEnsemble& model,
                   const ModelStats& stats) override;

    /**
     * The card is the chosen strategy plus each tree's internal-node
     * count, leaf count and depth — enough to size the compiled tensors
     * without building them.
     */
    std::unique_ptr<const CostCard> MakeCostCard(
        const RandomForest& forest, const ModelStats& stats) const override;

    ScoreResult Score(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) override;

    /** Strategy chosen for the loaded model. */
    HbStrategy ChosenStrategy() const;

    /**
     * The analytic tensor-op cost ledger for scoring @p num_rows rows,
     * identical to what a functional GEMM run records (tested).
     */
    CostLedger LedgerFor(std::size_t num_rows) const;

 private:
    const HbCostCard& Card() const;

    void CompileGemm(const RandomForest& forest);
    void CompilePerfect(const RandomForest& forest);

    std::vector<float> ScoreGemm(const float* rows, std::size_t num_rows,
                                 CostLedger* ledger) const;
    std::vector<float> ScorePerfect(const float* rows,
                                    std::size_t num_rows) const;

    GpuDeviceModel device_;
    HummingbirdParams params_;
    std::size_t num_features_ = 0;
    int num_outputs_ = 1;  ///< classes, or 1 for regression
    std::vector<GemmCompiledTree> gemm_trees_;
    std::vector<PerfectCompiledTree> perfect_trees_;
};

}  // namespace dbscore

#endif  // DBSCORE_ENGINES_GPU_HUMMINGBIRD_ENGINE_H

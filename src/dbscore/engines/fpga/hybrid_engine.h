/**
 * @file
 * Hybrid FPGA+CPU scoring engine for deep trees — the extension the paper
 * sketches in Section III-B: "An extension to our current design can send
 * the results of processing 10 levels of trees back to the CPU's memory
 * so that the rest of the operation, evaluating levels from depth 10
 * onward, be done on the CPU."
 *
 * The FPGA holds each tree's top max_tree_depth levels (continuation
 * slots mark cut subtrees); per (record, tree) the device returns either
 * a final vote or the node id to resume from, and the CPU finishes the
 * deep traversals and the final vote. Unlike the plain FPGA engine, this
 * one accepts trees of any depth — at the cost of shipping per-tree
 * partial results over PCIe and burning CPU cycles on the tails.
 */
#ifndef DBSCORE_ENGINES_FPGA_HYBRID_ENGINE_H
#define DBSCORE_ENGINES_FPGA_HYBRID_ENGINE_H

#include <vector>

#include "dbscore/engines/cpu/cpu_spec.h"
#include "dbscore/engines/fpga/fpga_engine.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/forest/forest.h"
#include "dbscore/fpgasim/tree_layout.h"

namespace dbscore {

/** The hybrid engine's cost card; defined in hybrid_engine.cc. */
class HybridCostCard;

/** The hybrid deep-tree backend. */
class HybridFpgaCpuEngine : public ScoringEngine {
 public:
    HybridFpgaCpuEngine(const FpgaSpec& fpga_spec,
                        const PcieLinkSpec& link_spec,
                        const FpgaOffloadParams& params,
                        const CpuSpec& cpu_spec);

    BackendKind kind() const override { return BackendKind::kFpgaHybrid; }

    /** Accepts any tree depth (unlike the plain FPGA engine). */
    void LoadModel(const TreeEnsemble& model,
                   const ModelStats& stats) override;

    /**
     * The card is the FPGA pass plan (BRAM rule only) plus the
     * continuation statistics below.
     */
    std::unique_ptr<const CostCard> MakeCostCard(
        const RandomForest& forest, const ModelStats& stats) const override;

    ScoreResult Score(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) override;

    /**
     * Expected fraction of (record, tree) traversals that hit the depth
     * cut and continue on the CPU: continuation slots weighted by their
     * reach probability under uniform branching.
     */
    double ContinuationFraction() const;

    /** Mean tree depth beyond the FPGA cut over continued traversals. */
    double MeanTailDepth() const;

 private:
    const HybridCostCard& Card() const;

    FpgaSpec fpga_spec_;
    PcieLink link_;
    FpgaOffloadParams params_;
    CpuSpec cpu_spec_;
    RandomForest forest_;
    std::size_t num_features_ = 0;
    std::vector<TreeMemoryImage> images_;
};

}  // namespace dbscore

#endif  // DBSCORE_ENGINES_FPGA_HYBRID_ENGINE_H

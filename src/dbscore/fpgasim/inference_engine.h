/**
 * @file
 * Cycle-approximate simulator of the paper's FPGA random-forest inference
 * engine (Figure 5): up to 128 processing elements, each holding one tree
 * image in BRAM, a shared input streamer broadcasting records to all PEs,
 * a majority-voting unit, and an on-chip result memory.
 *
 * Functional behaviour: every record is scored by walking each PE's
 * Fig.-4b memory image (via WalkTreeImage), and votes are combined with
 * the same MajorityVote used everywhere — so the simulator validates the
 * memory layout, not just the timing.
 *
 * Timing behaviour: records are fully pipelined; a new record enters every
 * ceil(features / stream_width) cycles. Models with more trees than PEs
 * run in multiple passes ("we need to call the inference engine multiple
 * times"), each re-streaming the records and reloading tree memories.
 */
#ifndef DBSCORE_FPGASIM_INFERENCE_ENGINE_H
#define DBSCORE_FPGASIM_INFERENCE_ENGINE_H

#include <cstdint>
#include <vector>

#include "dbscore/forest/forest.h"
#include "dbscore/fpgasim/fpga_spec.h"
#include "dbscore/fpgasim/tree_layout.h"

namespace dbscore {

/** Timing report for one scoring run. */
struct FpgaRunReport {
    std::uint64_t total_cycles = 0;
    std::uint64_t passes = 0;
    std::uint64_t stream_cycles_per_record = 0;

    SimTime
    ScoringTime(double clock_hz) const
    {
        return SimTime::Cycles(static_cast<double>(total_cycles), clock_hz);
    }
};

/**
 * What a forest occupies on the device. It follows from the tree count
 * alone (every image is padded to spec.max_tree_depth), so it is planned
 * without laying out any image.
 */
struct FpgaModelPlan {
    /** Engine passes: ceil(trees / PEs). */
    std::uint64_t passes = 0;
    /** Tree-memory bytes transferred over all passes. */
    std::uint64_t model_bytes = 0;
    /** BRAM occupied during the widest pass, result buffer included. */
    std::uint64_t bram_bytes = 0;

    /** Cycles scoring @p num_records records of @p num_features. */
    std::uint64_t Cycles(const FpgaSpec& spec, std::uint64_t num_records,
                         std::size_t num_features) const;
};

/**
 * The BRAM rule for @p num_trees tree images: one pass holds up to
 * num_pes images (at spec.node_bytes per slot) plus the result buffer.
 *
 * @throws CapacityError if the widest pass does not fit
 */
FpgaModelPlan PlanFpgaPasses(const FpgaSpec& spec, std::size_t num_trees);

/**
 * PlanFpgaPasses after the depth rule.
 *
 * @throws CapacityError if any tree exceeds spec.max_tree_depth or the
 *         widest pass does not fit in BRAM
 */
FpgaModelPlan PlanFpgaModel(const FpgaSpec& spec, const RandomForest& forest);

/** The simulated inference engine. */
class FpgaInferenceEngine {
 public:
    explicit FpgaInferenceEngine(const FpgaSpec& spec);

    const FpgaSpec& spec() const { return spec_; }

    /**
     * Programs tree memories with @p forest.
     *
     * @throws CapacityError as PlanFpgaModel does
     */
    void LoadModel(const RandomForest& forest);

    bool loaded() const { return !images_.empty(); }

    /** Trees laid out (one BRAM image per tree). */
    std::size_t NumTrees() const { return images_.size(); }

    /** Engine passes needed: ceil(trees / PEs). */
    std::uint64_t NumPasses() const;

    /** Total model bytes transferred into tree memories (all passes). */
    std::uint64_t ModelBytes() const;

    /** BRAM bytes occupied during the widest pass. */
    std::uint64_t BramBytesUsed() const;

    /** Cycles streaming one record into the PEs. */
    std::uint64_t StreamCyclesPerRecord(std::size_t num_features) const;

    /** Cycle count for scoring @p num_records records. */
    std::uint64_t CyclesFor(std::uint64_t num_records,
                            std::size_t num_features) const;

    /**
     * Functionally scores rows by walking the BRAM images and fills
     * @p report with the cycle model's output.
     *
     * @throws InvalidArgument if no model is loaded or arity mismatches
     */
    std::vector<float> Score(const float* rows, std::size_t num_rows,
                             std::size_t num_cols,
                             FpgaRunReport* report) const;

 private:
    FpgaSpec spec_;
    Task task_ = Task::kClassification;
    int num_classes_ = 0;
    std::size_t num_features_ = 0;
    FpgaModelPlan plan_;
    std::vector<TreeMemoryImage> images_;
};

}  // namespace dbscore

#endif  // DBSCORE_FPGASIM_INFERENCE_ENGINE_H

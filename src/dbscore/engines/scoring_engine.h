/**
 * @file
 * The scoring-engine abstraction shared by every hardware backend.
 *
 * An engine (1) functionally scores batches of records — producing real
 * predictions that must match the reference RandomForest — and
 * (2) reports a simulated latency breakdown with the components the paper
 * names in Figure 6 and Section IV-B: offload overhead O (setup, completion
 * signal, software overhead), data transfer L (input/result transfer), and
 * compute C. CPU engines only populate the framework-overhead and compute
 * components.
 */
#ifndef DBSCORE_ENGINES_SCORING_ENGINE_H
#define DBSCORE_ENGINES_SCORING_ENGINE_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/common/sim_time.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/onnx_like.h"

namespace dbscore {

/** Every engine variant the paper evaluates. */
enum class BackendKind {
    kCpuSklearn,      ///< Scikit-learn-style engine, multithreaded
    kCpuOnnx,         ///< ONNX-runtime-style engine, 1 thread
    kCpuOnnxMt,       ///< ONNX-runtime-style engine, 52 threads
    kGpuHummingbird,  ///< tree ensemble compiled to tensor ops on GPU
    kGpuRapids,       ///< RAPIDS-FIL-style traversal kernel on GPU
    kFpga,            ///< the paper's 128-PE FPGA inference engine
    /**
     * The paper's proposed extension (Section III-B): the FPGA scores the
     * first 10 levels and the CPU finishes deeper trees. Not one of the
     * paper's measured series, so excluded from AllBackends().
     */
    kFpgaHybrid,
};

/** Coarse device class of a backend. */
enum class DeviceClass { kCpu, kGpu, kFpga };

/** Short display name, e.g. "CPU_SKLearn" (matches the paper's legends). */
const char* BackendName(BackendKind kind);

/** Device class of a backend kind. */
DeviceClass BackendDeviceClass(BackendKind kind);

/**
 * Simulated latency breakdown of one scoring call. Components follow the
 * paper's Figure 6/7 taxonomy; CPU engines use only framework_overhead
 * and compute.
 */
struct OffloadBreakdown {
    /** Engine-side data preparation (e.g. RAPIDS' cuDF conversion). */
    SimTime preprocessing;
    /** L: moving model (and unoverlapped data) to the device. */
    SimTime input_transfer;
    /** O: configuring the accelerator / launching work. */
    SimTime setup;
    /** C: the scoring computation itself. */
    SimTime compute;
    /** O: completion signaling back to the host. */
    SimTime completion_signal;
    /** L: moving results back to host memory. */
    SimTime result_transfer;
    /** O: host-side API/framework call overhead. */
    SimTime software_overhead;

    SimTime Total() const;

    /** Offload overhead O = setup + completion + software. */
    SimTime OverheadO() const;

    /** Data transfer L = input + result transfer. */
    SimTime TransferL() const;

    OffloadBreakdown& operator+=(const OffloadBreakdown& other);
};

/**
 * Emits one simulated trace span per non-zero breakdown component
 * (accel-preproc, transfer-in, accel-setup, scoring, completion-signal,
 * transfer-out, software-overhead), chained on the calling thread's
 * trace::SimClock. Every engine's Score path calls this so a traced
 * query attributes its offload microseconds exactly like Figures 6/7.
 * No-op unless a ScopedSpan (the pipeline's offload span) is live on
 * this thread — untraced unit-test Score calls emit nothing.
 */
void TraceOffloadStages(const OffloadBreakdown& breakdown);

/** Result of a functional scoring call. */
struct ScoreResult {
    /** One prediction per input row. */
    std::vector<float> predictions;
    /** Simulated cost of this call. */
    OffloadBreakdown breakdown;
};

/** Terminal state of a fault-aware scoring attempt. */
enum class ScoreStatus {
    kOk,     ///< predictions and breakdown are valid
    kFault,  ///< an injected fault aborted the attempt
};

/**
 * A scoring attempt that is allowed to fail. Score() throwing
 * FaultInjected is the mechanism; this is the value-typed surface the
 * serving layer retries on without exceptions crossing queue/worker
 * boundaries.
 */
struct ScoreOutcome {
    ScoreStatus status = ScoreStatus::kOk;
    /** Valid only when ok(). */
    ScoreResult result;
    /** Which site failed; valid only when !ok(). */
    fault::FaultSite fault_site = fault::FaultSite::kPcieDma;
    /** True when the failing site is stuck until repaired. */
    bool fault_sticky = false;
    /** Human-readable failure description; empty when ok(). */
    std::string error;

    bool ok() const { return status == ScoreStatus::kOk; }
};

/**
 * The fault-injection sites one offload through @p kind crosses, in
 * operation order (e.g. FPGA: DMA in, setup, completion, DMA out).
 * CPU backends cross none — scoring in-process touches no modeled
 * hardware, which is exactly why CPU is the degradation target.
 * Used by timing-only dispatch paths that must consume the same fault
 * stream as a functional Score would.
 */
std::vector<fault::FaultSite> OffloadFaultSites(BackendKind kind);

/**
 * One backend's modeled cost for one model: the device parameters plus
 * the few per-model numbers its Estimate reads (ModelStats, a compile
 * strategy and tree shapes, pass counts and image bytes). Built by the
 * backend's MakeCostCard, which also applies its capacity rules; the
 * loaded engine and the OffloadScheduler both price through a card, so
 * each formula and each rule exists once. Immutable once built.
 */
class CostCard {
 public:
    CostCard() = default;
    virtual ~CostCard() = default;
    CostCard(const CostCard&) = delete;
    CostCard& operator=(const CostCard&) = delete;

    /** The breakdown a Score of @p num_rows rows reports. */
    virtual OffloadBreakdown Estimate(std::size_t num_rows) const = 0;
};

/** Abstract scoring engine. */
class ScoringEngine {
 public:
    virtual ~ScoringEngine() = default;

    virtual BackendKind kind() const = 0;

    std::string Name() const { return BackendName(kind()); }

    /**
     * Loads (and, where applicable, compiles) a model. Engines may reject
     * models that exceed modeled hardware limits.
     *
     * @param model   the ONNX-like exchange representation
     * @param stats   precomputed complexity statistics for the same model
     * @throws CapacityError when the model violates a device limit
     */
    virtual void LoadModel(const TreeEnsemble& model,
                           const ModelStats& stats) = 0;

    /**
     * This backend's cost card for @p forest, built without loading
     * anything: LoadModel keeps the same card, and the OffloadScheduler
     * holds nothing else.
     *
     * @throws CapacityError when the model violates a device limit
     */
    virtual std::unique_ptr<const CostCard> MakeCostCard(
        const RandomForest& forest, const ModelStats& stats) const = 0;

    /** True once LoadModel succeeded. */
    bool loaded() const { return card_ != nullptr; }

    /**
     * Functionally scores @p num_rows rows of @p num_cols features and
     * returns predictions plus the simulated breakdown.
     *
     * @throws InvalidArgument if no model is loaded or arity mismatches
     */
    virtual ScoreResult Score(const float* rows, std::size_t num_rows,
                              std::size_t num_cols) = 0;

    /**
     * Scores through a zero-copy view. Contiguous views (the common
     * case: whole RowBlocks and row-range slices) reach the virtual
     * Score without any copy; a strided column-slice view is first
     * materialized (counted against RowBlock::CopyStats).
     */
    ScoreResult Score(const RowView& view);

    /**
     * Fault-aware Score: catches FaultInjected from this engine's
     * injection sites and returns it as a kFault outcome instead of
     * unwinding through the caller. Non-fault errors (arity mismatch,
     * no model) still throw — those are caller bugs, not conditions
     * to retry.
     */
    ScoreOutcome TryScore(const float* rows, std::size_t num_rows,
                          std::size_t num_cols);

    /** Fault-aware Score through a zero-copy view. */
    ScoreOutcome TryScore(const RowView& view);

    /**
     * Timing-only evaluation: the breakdown Score would report for
     * @p num_rows rows, without computing predictions. Lets the bench
     * sweeps cover 1M-row points cheaply. Tests pin Estimate == Score's
     * breakdown wherever both run.
     *
     * @throws InvalidArgument if no model is loaded
     */
    OffloadBreakdown Estimate(std::size_t num_rows) const;

 protected:
    void RequireLoaded() const;

    /** Marks the model loaded; @p card prices it from now on. */
    void set_card(std::unique_ptr<const CostCard> card)
    {
        card_ = std::move(card);
    }

    /** The loaded model's card. @throws InvalidArgument if none. */
    const CostCard& card() const;

 private:
    std::unique_ptr<const CostCard> card_;
};

}  // namespace dbscore

#endif  // DBSCORE_ENGINES_SCORING_ENGINE_H

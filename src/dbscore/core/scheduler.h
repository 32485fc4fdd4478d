/**
 * @file
 * The offload scheduler.
 *
 * The paper's central observation is that the best backend for an
 * incoming scoring query "depends at least on the model complexity, the
 * scoring data size, and the overheads associated with data movement and
 * invocation" (Figure 1) — so a scheduler must decide dynamically.
 * OffloadScheduler holds one cost card per viable backend (a few KB: no
 * engine is loaded and nothing is compiled), asks each for its modeled
 * latency at a given record count, and quantifies the regret of a wrong
 * decision (the paper's ~10x latency / ~70x throughput penalties). It is
 * immutable once built, so one scheduler may serve many threads.
 */
#ifndef DBSCORE_CORE_SCHEDULER_H
#define DBSCORE_CORE_SCHEDULER_H

#include <memory>
#include <optional>
#include <vector>

#include "dbscore/core/backend_factory.h"
#include "dbscore/core/calibration.h"
#include "dbscore/engines/scoring_engine.h"

namespace dbscore {

/** One backend's predicted cost for a candidate query. */
struct BackendEstimate {
    BackendKind kind;
    OffloadBreakdown breakdown;

    SimTime Total() const { return breakdown.Total(); }
};

/** The scheduler's decision for one (model, record count) query. */
struct SchedulerDecision {
    BackendKind best;
    SimTime best_time;
    /** Every viable backend's estimate, in AllBackends() order. */
    std::vector<BackendEstimate> all;

    /** Estimate for @p kind, if that backend was viable. */
    std::optional<BackendEstimate> For(BackendKind kind) const;

    /** Speedup of the best backend over the best CPU variant. */
    double SpeedupOverCpu() const;
};

/** Chooses the best backend per query; see file comment. */
class OffloadScheduler {
 public:
    /**
     * Builds every backend's cost card for @p model. Backends that
     * reject the model (capacity limits) are simply unavailable, like
     * the missing series in the paper's plots — the same rules
     * CreateLoadedEngine applies.
     */
    OffloadScheduler(const HardwareProfile& profile,
                     const TreeEnsemble& model, const ModelStats& stats);

    /** Backends that accepted the model. */
    std::vector<BackendKind> Available() const;

    /** True if @p kind accepted the model. */
    bool Has(BackendKind kind) const;

    /** Oracle decision: evaluate every backend's model at @p num_rows. */
    SchedulerDecision Choose(std::size_t num_rows) const;

    /**
     * Modeled latency of one backend: bit-identical to the loaded
     * engine's Estimate. @throws NotFound if unavailable.
     */
    OffloadBreakdown EstimateFor(BackendKind kind,
                                 std::size_t num_rows) const;

    /**
     * Latency multiplier paid for picking @p chosen instead of the best
     * backend at @p num_rows (1.0 = optimal).
     */
    double Regret(BackendKind chosen, std::size_t num_rows) const;

 private:
    struct Backend {
        BackendKind kind;
        std::unique_ptr<const CostCard> card;
    };

    /** Viable backends, in AllBackends() order. */
    std::vector<Backend> backends_;
};

/**
 * Lowest-latency backend of one device class at @p num_rows, or nullopt
 * when no backend of that class hosts the model. The workload simulator
 * and the serving layer's placement policies both pick per *device*
 * (the contended resource), then use the best engine variant on it.
 */
std::optional<BackendEstimate> BestOfClass(const OffloadScheduler& scheduler,
                                           DeviceClass device,
                                           std::size_t num_rows);

}  // namespace dbscore

#endif  // DBSCORE_CORE_SCHEDULER_H

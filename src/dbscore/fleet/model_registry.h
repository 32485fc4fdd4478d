/**
 * @file
 * The fleet's warm-model registry.
 *
 * The paper's Figure 11 charges model deserialization/compilation as a
 * first-class pipeline overhead; a one-model service pays it once and
 * forgets it. A fleet serving thousands of models under a finite
 * memory budget cannot: cold models must be built on first use, hot
 * models kept warm, and everything else evicted — which means the
 * build cost comes *back* every time a cold tenant wakes an evicted
 * model. ModelRegistry makes that economy explicit: an LRU cache of
 * warm models under a configurable byte budget, with the modeled
 * re-warm tax measurable through the kKernelBuild / kRegistryHit /
 * kRegistryEvict trace stages and the hit/miss/eviction counters.
 *
 * A model's compiled form and its placement estimates never change, so
 * a spec's first Acquire builds them once — the CompiledModel (kernel,
 * or the reference forest only when the kernel cannot compile it) and
 * the OffloadScheduler (cost cards only) — and the spec keeps both and
 * drops its ensemble copy. A re-warm wraps the kept pair in a new
 * WarmModel: no ToForest, no compile, no scheduler. It still charges
 * the modeled build cost: the modeled clock prices the paper's model
 * pre-processing, not this process's reuse. Eviction therefore frees
 * only the resident slot; the byte budget prices residency at each
 * model's serialized size.
 *
 * Bit-identity invariant: a WarmModel's predictions depend only on the
 * registered ensemble — warm, re-warmed after eviction, or served
 * during degradation, the same rows produce the same bits (re-warms
 * share the very same kernel).
 */
#ifndef DBSCORE_FLEET_MODEL_REGISTRY_H
#define DBSCORE_FLEET_MODEL_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dbscore/common/sim_time.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/onnx_like.h"
#include "dbscore/serve/compiled_model.h"
#include "dbscore/trace/trace.h"

namespace dbscore::fleet {

/** Registry configuration. */
struct RegistryConfig {
    /**
     * Byte budget for resident warm models (accounted at each model's
     * serialized size). Inserting past it evicts least-recently-used
     * models first. Models handed out to in-flight dispatches survive
     * eviction (shared ownership) but stop counting as resident.
     */
    std::uint64_t memory_budget_bytes = 64ull << 20;
};

/** A scoring-ready model: the registry's unit of residency. */
struct WarmModel {
    /**
     * What rows are scored with. Built by the spec's first Acquire and
     * shared by every WarmModel of this id.
     */
    std::shared_ptr<const serve::CompiledModel> compiled;
    /** Placement estimates, built and shared the same way. */
    std::shared_ptr<const OffloadScheduler> scheduler;
    std::size_t num_cols = 0;
    std::uint64_t model_bytes = 0;
    /** Modeled cost this build charged (the re-warm tax). */
    SimTime build_cost;
    /**
     * Wall-clock milliseconds of this build: the conversion and compile
     * on the spec's first build, only the wrap on a re-warm.
     */
    double build_wall_ms = 0.0;
};

using WarmModelPtr = std::shared_ptr<const WarmModel>;

/** Result of one Acquire: the model plus what obtaining it cost. */
struct AcquireResult {
    WarmModelPtr model;
    /** False when the model had to be (re)built. */
    bool hit = true;
    /** Modeled build cost the caller must charge (zero on a hit). */
    SimTime build_cost;
};

/** Registry counters (snapshot under one lock). */
struct RegistrySnapshot {
    std::size_t registered_specs = 0;
    std::size_t resident_models = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t memory_budget_bytes = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Misses that re-built a previously evicted model. */
    std::size_t rebuilds = 0;
    std::size_t evictions = 0;
    /** Total modeled build cost charged across misses. */
    SimTime build_cost_total;
    /**
     * Total wall-clock milliseconds spent building on misses: every
     * WarmModel's build_wall_ms, plus each spec's one scheduler.
     */
    double build_wall_ms_total = 0.0;

    double
    HitRate() const
    {
        const std::size_t n = hits + misses;
        return n == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(n);
    }
};

/**
 * LRU cache of WarmModels under a byte budget. Thread-safe, with one
 * acquirer at a time: the serving core's dispatcher is the only caller
 * of Acquire, while any thread may register, evict or snapshot.
 */
class ModelRegistry {
 public:
    ModelRegistry(const HardwareProfile& profile, RegistryConfig config);

    /**
     * Registers the buildable spec for @p id. By default it is cheap:
     * the ensemble is copied, nothing is compiled and no scheduler is
     * built, so a malformed ensemble surfaces at its first Acquire.
     * With @p build_now the model is built here (a malformed ensemble
     * throws and registers nothing) and starts resident without a
     * modeled build charge, so its Acquires hit until an eviction.
     * @throws InvalidArgument on a duplicate id.
     */
    void RegisterModel(const std::string& id, const TreeEnsemble& model,
                       const ModelStats& stats, bool build_now = false);

    /**
     * @p id's placement estimates; null until its first build.
     * @throws NotFound for an unknown id.
     */
    std::shared_ptr<const OffloadScheduler> Scheduler(
        const std::string& id) const;

    /**
     * Returns the warm model for @p id, building it on a miss (and
     * evicting LRU residents past the budget). Emits kRegistryHit /
     * kKernelBuild / kRegistryEvict spans parented to @p parent at
     * modeled time @p now. @throws NotFound for an unknown id, and
     * whatever a failed first build threw (ParseError for a malformed
     * ensemble); the next Acquire of the id tries again.
     */
    AcquireResult Acquire(const std::string& id,
                          const trace::SpanContext& parent, SimTime now);

    /**
     * Drops every resident model (spec registrations stay). Next
     * Acquire of each id re-pays the build. Counted as evictions.
     */
    void EvictAll();

    RegistrySnapshot Snapshot() const;

 private:
    struct Spec {
        /** The registered ensemble; dropped by the first build. */
        std::shared_ptr<const TreeEnsemble> ensemble;
        ModelStats stats;
        /** Built by the spec's first Acquire; survive eviction. */
        std::shared_ptr<const serve::CompiledModel> compiled;
        std::shared_ptr<const OffloadScheduler> scheduler;
    };

    /** Caller holds mutex_. Evicts LRU models until within budget. */
    void EvictToBudgetLocked(const trace::SpanContext& parent, SimTime now);

    HardwareProfile profile_;
    RegistryConfig config_;
    /**
     * Pure cost model for the modeled (re)build charge: an Acquire miss
     * charges the default external runtime's model-preprocessing cost
     * for the model's serialized bytes, exactly like a cold Fig-11
     * dispatch on a device lane.
     */
    ExternalScriptRuntime cost_model_;

    mutable std::mutex mutex_;
    std::map<std::string, Spec> specs_;
    /** MRU front, LRU back; every entry is resident. */
    std::list<std::string> lru_;
    struct Resident {
        WarmModelPtr model;
        std::list<std::string>::iterator lru_pos;
    };
    std::map<std::string, Resident> resident_;
    std::uint64_t resident_bytes_ = 0;
    RegistrySnapshot counters_;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_MODEL_REGISTRY_H

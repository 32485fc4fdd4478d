#include "dbscore/fleet/model_registry.h"

#include <chrono>
#include <utility>

#include "dbscore/common/error.h"

namespace dbscore::fleet {

using trace::ScopedSpan;
using trace::SpanContext;
using trace::StageKind;
using trace::TraceCollector;

namespace {

double
MsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

ModelRegistry::ModelRegistry(const HardwareProfile& profile,
                             RegistryConfig config)
    : profile_(profile),
      config_(config),
      cost_model_(ExternalRuntimeParams{})
{
    counters_.memory_budget_bytes = config_.memory_budget_bytes;
}

void
ModelRegistry::RegisterModel(const std::string& id, const TreeEnsemble& model,
                             const ModelStats& stats, bool build_now)
{
    Spec spec;
    spec.stats = stats;
    std::shared_ptr<WarmModel> warm;
    if (build_now) {
        spec.compiled = std::make_shared<const serve::CompiledModel>(model);
        spec.scheduler =
            std::make_shared<const OffloadScheduler>(profile_, model, stats);
        warm = std::make_shared<WarmModel>();
        warm->compiled = spec.compiled;
        warm->scheduler = spec.scheduler;
        warm->num_cols = stats.num_features;
        warm->model_bytes = stats.serialized_bytes;
    } else {
        spec.ensemble = std::make_shared<const TreeEnsemble>(model);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (specs_.count(id) != 0) {
        throw InvalidArgument("registry: duplicate model id: " + id);
    }
    specs_.emplace(id, std::move(spec));
    if (warm != nullptr) {
        lru_.push_front(id);
        resident_.emplace(id, Resident{warm, lru_.begin()});
        resident_bytes_ += warm->model_bytes;
        EvictToBudgetLocked(trace::SpanContext{}, SimTime());
    }
}

std::shared_ptr<const OffloadScheduler>
ModelRegistry::Scheduler(const std::string& id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = specs_.find(id);
    if (it == specs_.end()) {
        throw NotFound("registry: unknown model: " + id);
    }
    return it->second.scheduler;
}

AcquireResult
ModelRegistry::Acquire(const std::string& id, const SpanContext& parent,
                       SimTime now)
{
    auto& tracer = TraceCollector::Get();
    std::unique_lock<std::mutex> lock(mutex_);
    auto spec_it = specs_.find(id);
    if (spec_it == specs_.end()) {
        throw NotFound("registry: unknown model: " + id);
    }

    auto res_it = resident_.find(id);
    if (res_it != resident_.end()) {
        // Warm hit: refresh recency, charge nothing.
        lru_.splice(lru_.begin(), lru_, res_it->second.lru_pos);
        ++counters_.hits;
        AcquireResult out;
        out.model = res_it->second.model;
        out.hit = true;
        tracer.EmitSim(StageKind::kRegistryHit, "registry-hit", parent, now,
                       SimTime(),
                       {{"resident", static_cast<double>(resident_.size())}});
        return out;
    }

    // Miss: build outside the lock so EvictAll and Snapshot stay
    // responsive. A build that throws changes nothing, so the next
    // Acquire of the id tries again.
    Spec& spec = spec_it->second;
    const bool rebuild = spec.compiled != nullptr;
    auto ensemble = spec.ensemble;
    const ModelStats stats = spec.stats;
    std::shared_ptr<const serve::CompiledModel> compiled = spec.compiled;
    std::shared_ptr<const OffloadScheduler> scheduler = spec.scheduler;
    lock.unlock();

    // The modeled build charge mirrors a cold external-runtime dispatch:
    // deserialize + prepare the model blob at its serialized size. A
    // re-warm charges it too: the modeled clock prices the paper's
    // pre-processing, whatever this process keeps.
    const SimTime build_cost =
        cost_model_.ModelPreprocessing(stats.serialized_bytes);
    auto model = std::make_shared<WarmModel>();
    double scheduler_wall_ms = 0.0;
    {
        // Wall clock covers the real work (conversion, compile and
        // scheduler on the spec's first build; the wrap on a re-warm);
        // the sim duration is the modeled charge.
        ScopedSpan span(StageKind::kKernelBuild, "registry-build", parent);
        const auto start = std::chrono::steady_clock::now();
        if (!rebuild) {
            compiled = std::make_shared<const serve::CompiledModel>(*ensemble);
            ScopedSpan build(StageKind::kKernelBuild, "registry-scheduler");
            const auto scheduler_start = std::chrono::steady_clock::now();
            scheduler = std::make_shared<const OffloadScheduler>(
                profile_, *ensemble, stats);
            scheduler_wall_ms = MsSince(scheduler_start);
        }
        model->compiled = compiled;
        model->scheduler = scheduler;
        model->num_cols = stats.num_features;
        model->model_bytes = stats.serialized_bytes;
        model->build_cost = build_cost;
        model->build_wall_ms = MsSince(start) - scheduler_wall_ms;
        tracer.EmitSim(StageKind::kKernelBuild, "registry-build-sim", parent,
                       now, build_cost,
                       {{"bytes", static_cast<double>(stats.serialized_bytes)},
                        {"rebuild", rebuild ? 1.0 : 0.0}});
    }

    lock.lock();
    if (!rebuild) {
        spec.compiled = compiled;
        spec.scheduler = scheduler;
        spec.ensemble.reset();
    }
    lru_.push_front(id);
    resident_.emplace(id, Resident{model, lru_.begin()});
    resident_bytes_ += model->model_bytes;
    ++counters_.misses;
    if (rebuild) {
        ++counters_.rebuilds;
    }
    counters_.build_cost_total = counters_.build_cost_total + build_cost;
    counters_.build_wall_ms_total += scheduler_wall_ms + model->build_wall_ms;
    EvictToBudgetLocked(parent, now);

    AcquireResult out;
    out.model = model;
    out.hit = false;
    out.build_cost = build_cost;
    return out;
}

void
ModelRegistry::EvictToBudgetLocked(const SpanContext& parent, SimTime now)
{
    auto& tracer = TraceCollector::Get();
    // Never evict the entry just inserted (lru_ front): a model larger
    // than the whole budget must still be servable, it just evicts
    // everything else and stays the lone (over-budget) resident.
    while (resident_bytes_ > config_.memory_budget_bytes && lru_.size() > 1) {
        const std::string victim = lru_.back();
        auto it = resident_.find(victim);
        DBS_ASSERT(it != resident_.end());
        resident_bytes_ -= it->second.model->model_bytes;
        tracer.EmitSim(StageKind::kRegistryEvict, "registry-evict", parent,
                       now, SimTime(),
                       {{"bytes",
                         static_cast<double>(it->second.model->model_bytes)},
                        {"resident_after",
                         static_cast<double>(resident_.size() - 1)}});
        resident_.erase(it);
        lru_.pop_back();
        ++counters_.evictions;
    }
}

void
ModelRegistry::EvictAll()
{
    auto& tracer = TraceCollector::Get();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, res] : resident_) {
        (void)id;
        resident_bytes_ -= res.model->model_bytes;
        ++counters_.evictions;
        tracer.EmitSim(StageKind::kRegistryEvict, "registry-evict-all",
                       trace::SpanContext{}, SimTime(), SimTime(),
                       {{"bytes",
                         static_cast<double>(res.model->model_bytes)}});
    }
    resident_.clear();
    lru_.clear();
    DBS_ASSERT(resident_bytes_ == 0);
}

RegistrySnapshot
ModelRegistry::Snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RegistrySnapshot snap = counters_;
    snap.registered_specs = specs_.size();
    snap.resident_models = resident_.size();
    snap.resident_bytes = resident_bytes_;
    snap.memory_budget_bytes = config_.memory_budget_bytes;
    return snap;
}

}  // namespace dbscore::fleet

#include "dbscore/core/scheduler.h"

#include <limits>

#include "dbscore/common/error.h"

namespace dbscore {

std::optional<BackendEstimate>
SchedulerDecision::For(BackendKind kind) const
{
    for (const auto& est : all) {
        if (est.kind == kind) {
            return est;
        }
    }
    return std::nullopt;
}

double
SchedulerDecision::SpeedupOverCpu() const
{
    SimTime best_cpu = SimTime::Seconds(
        std::numeric_limits<double>::infinity());
    for (const auto& est : all) {
        if (BackendDeviceClass(est.kind) == DeviceClass::kCpu) {
            best_cpu = Min(best_cpu, est.Total());
        }
    }
    return best_cpu / best_time;
}

OffloadScheduler::OffloadScheduler(const HardwareProfile& profile,
                                   const TreeEnsemble& model,
                                   const ModelStats& stats)
{
    const RandomForest forest = model.ToForest();
    for (BackendKind kind : AllBackends()) {
        // An unloaded engine is only the backend's parameters; its card
        // is what a LoadModel would price with.
        auto engine = CreateEngine(kind, profile);
        try {
            backends_.push_back({kind, engine->MakeCostCard(forest, stats)});
        } catch (const CapacityError&) {
            // This backend cannot host the model: it is not a choice.
        }
    }
    if (backends_.empty()) {
        throw InvalidArgument("scheduler: no backend can host this model");
    }
}

std::vector<BackendKind>
OffloadScheduler::Available() const
{
    std::vector<BackendKind> kinds;
    kinds.reserve(backends_.size());
    for (const Backend& backend : backends_) {
        kinds.push_back(backend.kind);
    }
    return kinds;
}

bool
OffloadScheduler::Has(BackendKind kind) const
{
    for (const Backend& backend : backends_) {
        if (backend.kind == kind) {
            return true;
        }
    }
    return false;
}

SchedulerDecision
OffloadScheduler::Choose(std::size_t num_rows) const
{
    SchedulerDecision decision;
    decision.best_time = SimTime::Seconds(
        std::numeric_limits<double>::infinity());
    for (const Backend& backend : backends_) {
        BackendEstimate est{backend.kind, backend.card->Estimate(num_rows)};
        if (est.Total() < decision.best_time) {
            decision.best_time = est.Total();
            decision.best = est.kind;
        }
        decision.all.push_back(std::move(est));
    }
    return decision;
}

OffloadBreakdown
OffloadScheduler::EstimateFor(BackendKind kind, std::size_t num_rows) const
{
    for (const Backend& backend : backends_) {
        if (backend.kind == kind) {
            return backend.card->Estimate(num_rows);
        }
    }
    throw NotFound(std::string("scheduler: backend unavailable: ") +
                   BackendName(kind));
}

double
OffloadScheduler::Regret(BackendKind chosen, std::size_t num_rows) const
{
    SchedulerDecision decision = Choose(num_rows);
    return EstimateFor(chosen, num_rows).Total() / decision.best_time;
}

std::optional<BackendEstimate>
BestOfClass(const OffloadScheduler& scheduler, DeviceClass device,
            std::size_t num_rows)
{
    std::optional<BackendEstimate> best;
    for (BackendKind kind : scheduler.Available()) {
        if (BackendDeviceClass(kind) != device) {
            continue;
        }
        BackendEstimate est{kind, scheduler.EstimateFor(kind, num_rows)};
        if (!best || est.Total() < best->Total()) {
            best = std::move(est);
        }
    }
    return best;
}

}  // namespace dbscore

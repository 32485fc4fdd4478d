#include "dbscore/serve/scoring_service.h"

#include <limits>
#include <ostream>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/trace/exporters.h"

namespace dbscore::serve {

using trace::StageKind;
using trace::TraceCollector;

namespace {

/** The core's shape for one implicit tenant; see the file comment. */
fleet::FleetConfig
CoreConfig(const ServiceConfig& config)
{
    if (config.admission_capacity == 0) {
        throw InvalidArgument("service: zero admission capacity");
    }
    fleet::FleetConfig core;
    static_cast<LaneConfig&>(core) = config;
    core.registry.memory_budget_bytes =
        std::numeric_limits<std::uint64_t>::max();
    core.autoscaler.enabled = false;
    core.initial_lanes = 1;
    core.queue_capacity = config.admission_capacity;
    return core;
}

}  // namespace

ScoringService::ScoringService(const HardwareProfile& profile,
                               ServiceConfig config)
    : FleetService(profile, CoreConfig(config), config.coalescer,
                   config.policy, /*resident_models=*/true),
      config_(std::move(config))
{
}

void
ScoringService::RegisterModel(const std::string& id,
                              const TreeEnsemble& model,
                              const ModelStats& stats)
{
    if (running()) {
        throw InvalidArgument("service: RegisterModel while running");
    }
    FleetService::RegisterModel(id, model, stats);
}

std::vector<BackendKind>
ScoringService::BackendsFor(const std::string& id) const
{
    return registry().Scheduler(id)->Available();
}

void
ScoringService::Start()
{
    if (registry().Snapshot().registered_specs == 0) {
        throw InvalidArgument("service: Start with no registered models");
    }
    FleetService::Start();
}

PendingScorePtr
ScoringService::Submit(ScoreRequest request)
{
    return SubmitScore(std::move(request));
}

ScoreReply
ScoringService::ScoreSync(ScoreRequest request)
{
    return Submit(std::move(request))->Wait();
}

ServiceSnapshot
ScoringService::Stats() const
{
    const fleet::FleetSnapshot core = FleetService::Stats();
    using fleet::ClassSnapshot;
    ServiceSnapshot snap;
    snap.submitted = core.Submitted();
    snap.admitted = core.Sum(&ClassSnapshot::admitted);
    snap.rejected = core.Sum(&ClassSnapshot::rejected_quota) +
                    core.Sum(&ClassSnapshot::rejected_capacity);
    snap.expired = core.Sum(&ClassSnapshot::expired);
    snap.completed = core.Completed();
    snap.failed = core.Sum(&ClassSnapshot::failed);
    snap.degraded_completed = core.Sum(&ClassSnapshot::degraded);
    // Every request rides the one implicit tenant's class.
    snap.latency = core.classes[0].latency;
    snap.batch_requests = core.batch_requests;
    snap.batch_rows = core.batch_rows;
    snap.device = core.devices;
    for (const DeviceSnapshot& dev : core.devices) {
        snap.batches += dev.dispatches;
        snap.fault_attempts += dev.faults;
        snap.retries += dev.retries;
        snap.fallback_batches += dev.fallbacks;
        snap.breaker_opens += dev.breaker_opens;
        snap.fault_wasted += dev.fault_wasted;
        snap.retry_backoff += dev.retry_backoff;
    }
    snap.first_arrival = core.first_arrival;
    snap.last_finish = core.last_finish;

    // Stage attribution comes from the trace subsystem: sum the
    // simulated durations of this service's per-request stage spans,
    // less what had accumulated at the last ResetStats().
    auto totals = TraceCollector::Get().StageSimTotals(trace_domain());
    {
        std::lock_guard<std::mutex> lock(baseline_mutex_);
        for (std::size_t i = 0; i < totals.size(); ++i) {
            totals[i] = Max(SimTime(), totals[i] - stage_baseline_[i]);
        }
    }
    auto of = [&totals](StageKind stage) {
        return totals[static_cast<int>(stage)];
    };
    StageTotals& st = snap.stage_totals;
    st.coalesce_delay = of(StageKind::kCoalesce);
    st.queue_wait = of(StageKind::kQueueWait);
    st.invocation = of(StageKind::kInvocation);
    st.model_preprocessing = of(StageKind::kModelPreproc);
    st.transfer = of(StageKind::kMarshal);
    st.data_preprocessing = of(StageKind::kDataPreproc);
    st.scoring = of(StageKind::kScoring);
    return snap;
}

void
ScoringService::ResetStats()
{
    // Order matters: rebaseline the trace totals first, then zero the
    // counters, so a concurrent Stats() never pairs new counters with
    // pre-reset stage totals.
    {
        std::lock_guard<std::mutex> lock(baseline_mutex_);
        stage_baseline_ = TraceCollector::Get().StageSimTotals(trace_domain());
    }
    FleetService::ResetStats();
}

void
ScoringService::ExportTrace(std::ostream& os) const
{
    TraceCollector& tracer = TraceCollector::Get();
    trace::WriteChromeTrace(os, tracer.SpansForDomain(trace_domain()),
                            tracer.TotalDropped());
}

}  // namespace dbscore::serve

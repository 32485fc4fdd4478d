/**
 * @file
 * The concurrent scoring service.
 *
 * ScoringService is the serving layer's single-tenant front door: it
 * accepts scoring requests from many client threads, applies admission
 * control (bounded queue, reject-on-full backpressure, deadline
 * expiry), coalesces same-model requests into micro-batches to
 * amortize the paper's invocation/transfer/preprocessing overheads,
 * and places each batch on the device lane that finishes it earliest
 * (the core's one placement rule).
 *
 * It is a thin configuration of the one serving core,
 * fleet::FleetService (see its file comment): one implicit tenant in
 * one class, one lane per device with no autoscaling, models built at
 * RegisterModel and never evicted or charged a registry build, and this
 * service's coalescing window and per-request deadlines. Modeled
 * results are a function of the request trace alone: thread timing can
 * change which requests share a batch (a live burst's idle flushes)
 * and which scorer thread answers it, never how a batch is placed or
 * costed. A trace queued before Start() batches deterministically too.
 * An unstamped request arrives at the latest modeled arrival or
 * finish, and a finish is published before its caller wakes, so a
 * synchronous caller's next request follows its last reply.
 */
#ifndef DBSCORE_SERVE_SCORING_SERVICE_H
#define DBSCORE_SERVE_SCORING_SERVICE_H

#include <array>
#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "dbscore/fleet/fleet_service.h"
#include "dbscore/serve/batch_coalescer.h"
#include "dbscore/serve/device_lanes.h"
#include "dbscore/serve/request.h"
#include "dbscore/serve/service_stats.h"
#include "dbscore/trace/trace.h"

namespace dbscore::serve {

/** Service configuration: coalescing and admission. */
struct ServiceConfig {
    /** Micro-batching policy; window zero = uncoalesced baseline. */
    CoalescerConfig coalescer;
    /**
     * Admission-queue capacity. Submissions while this many requests
     * wait for dispatch are rejected immediately (backpressure) rather
     * than queued without bound.
     */
    std::size_t admission_capacity = 1024;
};

/** Accepts, batches, places, and "executes" scoring requests. */
class ScoringService : private fleet::FleetService {
 public:
    ScoringService(const HardwareProfile& profile,
                   const ServiceConfig& config);

    // Lifecycle and trace domain as the core has them: Stop() drains
    // in-flight requests (rejecting any queued before a Start that
    // never came), is idempotent and runs in the destructor.
    using FleetService::Drain;
    using FleetService::running;
    using FleetService::Stop;
    using FleetService::trace_domain;

    /**
     * Registers a model under @p id and builds it for every viable
     * backend. Must precede Start().
     * @throws InvalidArgument when running or @p id is taken
     */
    void RegisterModel(const std::string& id, const TreeEnsemble& model,
                       const ModelStats& stats);

    /** Backends available for a registered model. */
    std::vector<BackendKind> BackendsFor(const std::string& id) const;

    /**
     * Launches the dispatcher and one scorer per hardware thread,
     * which score every device's dispatches from one queue.
     */
    void Start();

    /**
     * Submits one request. Never blocks on scoring: returns a handle
     * that is fulfilled later (or immediately, with kRejected, under
     * backpressure, when the service is stopped, or for an unknown
     * model). Thread-safe.
     */
    PendingScorePtr Submit(ScoreRequest request);

    /** Submit + Wait convenience for synchronous callers. */
    ScoreReply ScoreSync(ScoreRequest request);

    /**
     * Metrics snapshot; callable while running. Counters and latency
     * quantiles come from the core's stats; stage_totals is derived
     * from the service's trace spans (drained at the end of each
     * dispatch, so a snapshot taken mid-dispatch may trail it).
     */
    ServiceSnapshot Stats() const;

    /**
     * Zeroes the counters and rebaselines the trace-derived stage
     * totals, so the next Stats() reports only what happened after
     * this call — clean per-phase snapshots (EXEC sp_serve_stats
     * @reset = 1). Breaker states survive. Callable while running;
     * in-flight requests settle into the new phase.
     */
    void ResetStats();

    /**
     * Writes every span this service emitted (its trace domain only)
     * as Chrome trace_event JSON — loadable in chrome://tracing or
     * Perfetto. Best taken after Drain()/Stop().
     */
    void ExportTrace(std::ostream& os) const;

 private:
    /**
     * Trace stage totals at the last ResetStats(). StageSimTotals
     * accumulates for a domain's whole lifetime, so per-phase stage
     * totals are (current - baseline). Guarded by baseline_mutex_.
     */
    mutable std::mutex baseline_mutex_;
    std::array<SimTime, trace::kNumStageKinds> stage_baseline_{};
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_SCORING_SERVICE_H

/**
 * @file
 * The concurrent scoring service.
 *
 * ScoringService is the serving layer the ROADMAP's production north
 * star needs and the paper's conclusion argues for: a front door that
 * accepts scoring requests from many client threads, applies admission
 * control (bounded queue, reject-on-full backpressure, deadline expiry),
 * coalesces same-model requests into micro-batches to amortize the
 * paper's invocation/transfer/preprocessing overheads, and places each
 * batch on a device class under a queue-aware policy. Per-member reply
 * shares are split here; the dispatch itself — the attempt, fault,
 * retry and CPU-degrade loop, the breakers and the lane horizons — is
 * DeviceLanes, used with one lane per device class.
 *
 * Concurrency vs. time: the *machinery* is real — client threads block
 * on real condition variables, a dispatcher thread and one worker
 * thread per device class run on a dedicated ThreadPool — while all
 * *latencies* are modeled SimTime, exactly like the rest of dbscore.
 * Requests carry modeled arrival stamps (trace replay) or are stamped
 * with the service's modeled clock (live callers); each device's lane
 * advances a modeled free-at horizon as batches dispatch. Results are
 * therefore machine-independent: wall-clock thread interleaving can
 * change which requests share a batch, but never how a given batch is
 * costed.
 */
#ifndef DBSCORE_SERVE_SCORING_SERVICE_H
#define DBSCORE_SERVE_SCORING_SERVICE_H

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dbscore/common/thread_pool.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/core/workload_sim.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/serve/batch_coalescer.h"
#include "dbscore/serve/compiled_model.h"
#include "dbscore/serve/device_lanes.h"
#include "dbscore/serve/request.h"
#include "dbscore/serve/service_stats.h"
#include "dbscore/trace/trace.h"

namespace dbscore::serve {

/** Service configuration. */
struct ServiceConfig {
    /** Micro-batching policy; window zero = uncoalesced baseline. */
    CoalescerConfig coalescer;
    /**
     * Admission-queue capacity. Submissions beyond this many unserved
     * requests are rejected immediately (backpressure) rather than
     * queued without bound.
     */
    std::size_t admission_capacity = 1024;
    /** Placement policy across device classes (workload_sim semantics). */
    WorkloadPolicy policy = WorkloadPolicy::kQueueAware;
    /** Stage costs of each device worker's external runtime instance. */
    ExternalRuntimeParams runtime_params;
    /**
     * Wall-clock idle interval after which open batches are flushed, so
     * a lone synchronous caller is never stranded waiting for
     * batchmates that will not come. Liveness only — it never enters
     * the modeled times.
     */
    std::chrono::milliseconds flush_interval{2};
    /** Retry/backoff policy for faulted dispatch attempts. */
    RetryPolicy retry;
    /** Circuit breaker policy for each device queue. */
    BreakerPolicy breaker;
    /**
     * Degrade instead of fail: a batch that exhausts its accelerator
     * attempts (or whose accelerator's breaker is open) re-runs on the
     * CPU engine with the reply flagged degraded. When false, faulted
     * batches fail outright after their retries.
     */
    bool cpu_fallback = true;
};

/** Accepts, batches, places, and "executes" scoring requests. */
class ScoringService {
 public:
    ScoringService(const HardwareProfile& profile, ServiceConfig config);

    /** Stops the service (idempotent, joins all threads). */
    ~ScoringService();

    ScoringService(const ScoringService&) = delete;
    ScoringService& operator=(const ScoringService&) = delete;

    /**
     * Registers a model under @p id, loading it into every viable
     * backend. Must precede Start(); the registry is immutable while
     * the service runs so workers read it lock-free.
     * @throws InvalidArgument when running or @p id is taken
     */
    void RegisterModel(const std::string& id, const TreeEnsemble& model,
                       const ModelStats& stats);

    /** Backends available for a registered model. */
    std::vector<BackendKind> BackendsFor(const std::string& id) const;

    /** Launches the dispatcher and device worker threads. */
    void Start();

    /**
     * Drains in-flight requests, then stops every thread. Idempotent;
     * called by the destructor.
     */
    void Stop();

    /** Blocks until every submitted request reached a terminal state. */
    void Drain();

    bool running() const;

    /**
     * Submits one request. Never blocks on scoring: returns a handle
     * that is fulfilled later (or immediately, with kRejected, under
     * backpressure or when the service is not running / the model is
     * unknown). Thread-safe.
     */
    PendingScorePtr Submit(ScoreRequest request);

    /** Submit + Wait convenience for synchronous callers. */
    ScoreReply ScoreSync(ScoreRequest request);

    /**
     * Metrics snapshot; callable while running. Counters and latency
     * quantiles come from ServiceStats; stage_totals is derived from
     * the service's trace spans (which are drained at the end of each
     * dispatched batch, so a snapshot taken mid-batch may trail that
     * batch's stages by one dispatch).
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

    /** This service's span domain in the process-wide TraceCollector. */
    std::uint32_t trace_domain() const { return trace_domain_; }

    const ServiceConfig& config() const { return config_; }

 private:
    /** Everything the workers need to cost and score one model. */
    struct ModelEntry {
        OffloadScheduler scheduler;
        /**
         * Functional model for requests that carry row payloads,
         * compiled once here at registration, so coalesced
         * micro-batches score through the same compiled plan and never
         * recompile.
         */
        CompiledModel compiled;
        std::size_t num_cols = 0;
        std::uint64_t model_bytes = 0;

        ModelEntry(const HardwareProfile& profile,
                   const TreeEnsemble& model, const ModelStats& stats);
    };

    /** One device class's batch queue and worker state. */
    struct Device {
        std::deque<std::pair<Batch, BackendKind>> queue;
        std::mutex mutex;
        std::condition_variable cv;
        /** Worker exits once set and the queue is drained. */
        bool stop = false;
    };

    /** A dispatched batch's live members, as DeviceLanes::Run sees them. */
    class BatchRiders;

    void DispatcherLoop();
    void WorkerLoop(int device_index);
    void PlaceAndEnqueue(Batch batch);
    void ExecuteBatch(DeviceClass device_class, Batch& batch,
                      BackendKind kind);
    /** Fails one member of @p run's dispatch at run.now. */
    void FailMember(PendingRequest& member, const LaneRun& run,
                    const char* why);
    /** Emits a request's root span (dual clock: submit->now wall, arrival->finish sim). */
    void EmitRequestSpan(const PendingRequest& request, SimTime arrival,
                         SimTime finish, bool expired) const;
    /** Marks one admitted request terminal; advances the modeled clock. */
    void SettleOne(SimTime finish);
    SimTime StampArrival(const std::optional<SimTime>& arrival);

    HardwareProfile profile_;
    ServiceConfig config_;
    std::map<std::string, std::unique_ptr<ModelEntry>> models_;

    // Admission queue (bounded) feeding the dispatcher.
    mutable std::mutex admission_mutex_;
    std::condition_variable admission_cv_;
    std::deque<PendingRequest> admission_;
    /** Admitted but not yet settled (for capacity accounting). */
    std::size_t in_flight_ = 0;
    /** Monotonic modeled clock for unstamped (live) arrivals. */
    SimTime modeled_now_;
    bool stop_requested_ = false;
    bool running_ = false;
    bool dispatcher_done_ = false;

    Device devices_[3];
    /** One lane per device class; breakers, runtimes, fault counters. */
    DeviceLanes lanes_;

    // Drain/Stop coordination.
    mutable std::mutex settled_mutex_;
    std::condition_variable settled_cv_;

    ServiceStats stats_;
    /**
     * Trace stage totals at the last ResetStats(). StageSimTotals
     * accumulates for a domain's whole lifetime, so per-phase stage
     * totals are (current - baseline). Guarded by baseline_mutex_.
     */
    mutable std::mutex baseline_mutex_;
    std::array<SimTime, trace::kNumStageKinds> stage_baseline_{};
    std::unique_ptr<ThreadPool> threads_;
    /**
     * Each service instance traces into its own domain so two
     * concurrent services (e.g. coalesced vs baseline in the tests)
     * keep separate stage totals and exports.
     */
    std::uint32_t trace_domain_ = 0;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_SCORING_SERVICE_H

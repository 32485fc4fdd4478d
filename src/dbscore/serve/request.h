/**
 * @file
 * Request/reply types of the concurrent scoring service.
 *
 * A ScoreRequest is what a DBMS session hands the serving layer: which
 * model, how many records, when it arrived (modeled time), and how long
 * it is willing to wait. The service answers with a ScoreReply carrying
 * the modeled completion time and a per-request split of the batch's
 * stage breakdown, so the paper's overhead taxonomy survives coalescing:
 * a request that shared a dispatch with 31 others is charged 1/32nd of
 * the invocation cost and its row-proportional share of transfer,
 * preprocessing, and compute.
 */
#ifndef DBSCORE_SERVE_REQUEST_H
#define DBSCORE_SERVE_REQUEST_H

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dbscore/core/workload_sim.h"
#include "dbscore/engines/scoring_engine.h"

namespace dbscore::fleet {
class FleetService;
}  // namespace dbscore::fleet

namespace dbscore::serve {

/** One scoring request submitted to the service. */
struct ScoreRequest {
    /** Model to score with; must be registered before Start(). */
    std::string model_id;
    /** Records to score. */
    std::size_t num_rows = 1;
    /**
     * Optional feature payload: a num_rows x model-feature view, scored
     * in place (admission -> coalescing -> kernel, no copy) through the
     * model compiled at RegisterModel. When empty the request is
     * modeled-time only, like the trace replays. A shared view's
     * keepalive lets it outlive the producing Table/Dataset.
     */
    RowView rows;
    /**
     * Modeled arrival time. Trace replays stamp this from the workload
     * generator; live callers (sp_score_service) leave it empty and the
     * service stamps its current modeled clock.
     */
    std::optional<SimTime> arrival;
    /**
     * Deadline relative to arrival; a request whose modeled dispatch
     * would start after arrival + deadline expires instead of scoring.
     * Empty = wait forever.
     */
    std::optional<SimTime> deadline;
};

/** Terminal state of a request. */
enum class RequestStatus {
    kCompleted,  ///< scored; timing fields are valid
    kRejected,   ///< admission queue full (backpressure) or service down
    kExpired,    ///< deadline passed before the batch dispatched
    kFailed,     ///< injected faults exhausted every permitted retry
};

const char* RequestStatusName(RequestStatus status);

/** Per-request split of a batch's modeled stage costs. */
struct RequestTiming {
    /** Batch-ready -> own arrival gap paid to wait for batchmates. */
    SimTime coalesce_delay;
    /** Batch-ready -> dispatch gap paid queueing for the device. */
    SimTime queue_wait;
    /** Even share of the external-process invocation (cold or warm). */
    SimTime invocation_share;
    /** Even share of model deserialization (cold dispatches only). */
    SimTime model_preproc_share;
    /** Row-proportional share of DBMS<->process data marshaling. */
    SimTime transfer_share;
    /** Row-proportional share of scoring-matrix preparation. */
    SimTime data_preproc_share;
    /** Row-proportional share of the engine's offload breakdown. */
    OffloadBreakdown scoring_share;

    /** End-to-end modeled latency (finish - arrival). */
    SimTime latency;
};

/** The service's answer to one request. */
struct ScoreReply {
    RequestStatus status = RequestStatus::kRejected;
    /** Device and backend the batch ran on (completed requests only). */
    DeviceClass device = DeviceClass::kCpu;
    BackendKind backend = BackendKind::kCpuSklearn;
    /** Modeled completion (or expiry/rejection) time. */
    SimTime finish;
    RequestTiming timing;
    /** Size of the coalesced dispatch this request rode in. */
    std::size_t batch_requests = 0;
    std::size_t batch_rows = 0;
    /** True when this dispatch paid a cold process start. */
    bool cold_invocation = false;
    /**
     * Dispatch attempts this request's batch consumed (1 = clean first
     * try; each injected fault that triggered a retry adds one; 0 when
     * the request never dispatched).
     */
    std::size_t attempts = 0;
    /**
     * True when the reply was produced by the CPU engine because the
     * originally chosen accelerator was faulted or its breaker open.
     * Degraded replies are still kCompleted and their predictions are
     * the CPU engine's — bit-identical to scoring on CPU directly.
     */
    bool degraded = false;
    /** Completed, but after the request's deadline. */
    bool deadline_miss = false;
    /**
     * The dispatch missed the model registry (a cold or evicted model)
     * and paid the modeled build; never set for ScoringService, whose
     * models are built at registration.
     */
    bool registry_miss = false;
    /**
     * Real predictions, one per request row — populated only when the
     * request carried a feature payload. Functional output; the
     * modeled timing fields are unaffected by computing it.
     */
    std::vector<float> predictions;
    /** Human-readable detail for rejected requests. */
    std::string error;
};

/**
 * Where the serving core delivers a request's one terminal reply:
 * ScoringService's PendingScore, or a fleet request's future.
 */
class ReplySink {
 public:
    ReplySink() = default;
    ReplySink(const ReplySink&) = delete;
    ReplySink& operator=(const ReplySink&) = delete;
    virtual ~ReplySink() = default;

 private:
    friend class fleet::FleetService;

    virtual void Fulfill(ScoreReply reply) = 0;
};

/**
 * Completion handle returned by ScoringService::Submit. Thread-safe:
 * any thread may Wait() while the service fulfills it once.
 */
class PendingScore final : public ReplySink {
 public:
    /** Blocks until the reply is ready and returns it. */
    const ScoreReply& Wait() const;

    /** Non-blocking probe. */
    bool ready() const;

 private:
    friend class fleet::FleetService;

    void Fulfill(ScoreReply reply) override;

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    bool ready_ = false;
    ScoreReply reply_;
};

using PendingScorePtr = std::shared_ptr<PendingScore>;

/**
 * Converts a generated workload trace (core/workload_sim arrival +
 * record-count stream) into service requests against one model — the
 * bridge the serve tests and benches use to replay identical traces
 * with and without coalescing.
 */
std::vector<ScoreRequest> RequestsFromWorkload(
    const std::vector<WorkloadQuery>& queries, const std::string& model_id,
    std::optional<SimTime> deadline = std::nullopt);

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_REQUEST_H

/**
 * @file
 * Dynamic micro-batching of same-model scoring requests.
 *
 * The paper's small-batch result is brutal: at low record counts the
 * invocation, transfer, and preprocessing overheads dwarf compute, so
 * accelerators lose to the CPU. Those overheads are per-*dispatch*, not
 * per-row — which makes them amortizable whenever concurrent requests
 * against the same model can ride one dispatch. The coalescer implements
 * the standard serving-system compromise (cf. Clipper, Triton dynamic
 * batching): hold a batch open for at most a window after its first
 * request arrives, cap its size, and close it early when full. The
 * window and the request cap are set per service; the row cap is one
 * constant, kMaxBatchRows.
 *
 * The class itself is intentionally single-threaded and time-explicit
 * (callers pass modeled arrival stamps); the one serving dispatcher
 * (fleet::FleetService's, which ScoringService configures with its
 * window while fleet requests use window zero) drives it. That keeps
 * the policy unit-testable without any concurrency.
 */
#ifndef DBSCORE_SERVE_BATCH_COALESCER_H
#define DBSCORE_SERVE_BATCH_COALESCER_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/serve/request.h"
#include "dbscore/trace/trace.h"

namespace dbscore::serve {

/** Close a batch once it holds this many rows. */
inline constexpr std::size_t kMaxBatchRows = 1u << 20;

/** Micro-batching policy knobs. */
struct CoalescerConfig {
    /**
     * How long after its first request a batch may keep accepting
     * joiners (modeled time). Zero disables coalescing: every request
     * dispatches alone — the uncoalesced baseline.
     */
    SimTime window = SimTime::Millis(5.0);
    /** Close a batch once it holds this many requests. */
    std::size_t max_batch_requests = 64;
};

/** A request waiting in the coalescer, with its completion handle. */
struct PendingRequest {
    ScoreRequest request;
    std::shared_ptr<ReplySink> handle;
    /**
     * Root span of this request's trace, opened at admission. Carried
     * through the dispatcher and scorer hops so every stage
     * span a later thread emits can parent to it.
     */
    trace::SpanContext trace;
    /** Wall-clock submit stamp (TraceCollector microseconds). */
    double submit_wall_us = 0.0;
    /**
     * Index of the submitting tenant's fleet::SloClass: its fair-queue
     * class and stats slice. ScoringService's one tenant is class 0.
     */
    int slo_class = 0;
};

/** A closed batch, ready for placement and dispatch. */
struct Batch {
    std::string model_id;
    std::vector<PendingRequest> members;
    /** Arrival of the request that opened the batch. */
    SimTime open_arrival;
    /** Max member arrival: the batch cannot dispatch before this. */
    SimTime ready;
    std::size_t total_rows = 0;
};

/** Groups same-model requests into dispatchable batches. */
class BatchCoalescer {
 public:
    explicit BatchCoalescer(const CoalescerConfig& config);

    /**
     * Adds one request (its arrival must already be stamped). Returns
     * the batches this add closed: the previously open batch when the
     * newcomer missed its window, and/or the newcomer's own batch when
     * a size cap was hit. Usually empty or one batch.
     */
    std::vector<Batch> Add(PendingRequest request);

    /** Closes and returns every open batch (drain / idle flush). */
    std::vector<Batch> Flush();

    /** Number of models with an open batch. */
    std::size_t open_batches() const { return open_.size(); }

    /** Requests currently held in open batches. */
    std::size_t pending_requests() const { return pending_; }

 private:
    CoalescerConfig config_;
    std::map<std::string, Batch> open_;
    std::size_t pending_ = 0;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_BATCH_COALESCER_H

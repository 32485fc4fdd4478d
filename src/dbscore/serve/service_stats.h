/**
 * @file
 * Thread-safe serving metrics.
 *
 * ServiceStats is the service's flight recorder: admission counters,
 * end-to-end latency quantiles, per-stage modeled-time totals (the
 * paper's Figure-11 taxonomy aggregated across the fleet), per-device
 * dispatch accounting, and the coalesced-batch size distribution. Any
 * thread may record; any thread may Snapshot() while the service runs —
 * its own counters are copied under one lock, the DeviceLanes fault
 * counters under each device class's.
 */
#ifndef DBSCORE_SERVE_SERVICE_STATS_H
#define DBSCORE_SERVE_SERVICE_STATS_H

#include <cstddef>
#include <mutex>
#include <string>

#include "dbscore/common/stats.h"
#include "dbscore/serve/device_lanes.h"
#include "dbscore/serve/request.h"
#include "dbscore/trace/histogram.h"

namespace dbscore::serve {

/**
 * Count + moments + tail quantiles of one recorded distribution (the
 * quantiles are DistStats estimates).
 */
struct DistSummary {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/**
 * One recorded distribution in bounded memory, behind every DistSummary
 * the services report. Count, mean and max are exact (RunningStats).
 * p50/p95/p99 are estimates from a trace::Histogram whose buckets grow
 * by kBucketRatio from kMinValue, so memory is one counter per bucket
 * up to the largest sample (about 2.3k buckets for latencies up to
 * 10 s), however many samples arrive.
 *
 * Error bound: for quantile q over n samples, let x_lo <= x_hi be the
 * order statistics at 0-based ranks floor(q(n-1)) and ceil(q(n-1)),
 * the pair the exact (interpolated) quantile lies between. The
 * estimate lies in [x_lo / sqrt(kBucketRatio), x_hi * sqrt(kBucketRatio)]:
 * within 0.5% of the exact quantile's bracket. Samples below kMinValue
 * share one bucket, so there the error is absolute, below kMinValue.
 */
class DistStats {
 public:
    static constexpr double kBucketRatio = 1.01;
    static constexpr double kMinValue = 1e-9;

    void Add(double x);

    DistSummary Summary() const;

 private:
    RunningStats moments_;
    trace::Histogram quantiles_{kMinValue, kBucketRatio};
};

/** Per-device-class dispatch accounting. */
struct DeviceServeStats {
    std::size_t batches = 0;
    std::size_t requests = 0;
    std::size_t rows = 0;
    std::size_t cold_invocations = 0;
    /** Modeled busy time accumulated on this device. */
    SimTime busy;
    /** Dispatch attempts on this device lost to injected faults. */
    std::size_t faults = 0;
    /** Breaker state at snapshot time. */
    BreakerState breaker = BreakerState::kClosed;
};

/**
 * Fleet-wide modeled time spent in each pipeline stage. Derived from
 * the trace subsystem (the single source of truth for stage
 * attribution): ScoringService::Stats() sums the simulated durations
 * of the service's per-request stage spans. Only completed requests
 * contribute — expired members emit no share spans.
 */
struct StageTotals {
    SimTime coalesce_delay;
    SimTime queue_wait;
    SimTime invocation;
    SimTime model_preprocessing;
    SimTime transfer;
    SimTime data_preprocessing;
    SimTime scoring;
};

/** A consistent copy of every counter at one instant. */
struct ServiceSnapshot {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    std::size_t rejected = 0;
    std::size_t expired = 0;
    std::size_t completed = 0;
    std::size_t batches = 0;

    /** Requests that exhausted every permitted retry (kFailed). */
    std::size_t failed = 0;
    /** Completed requests answered by the CPU degradation path. */
    std::size_t degraded_completed = 0;
    /** Dispatch attempts aborted by an injected fault. */
    std::size_t fault_attempts = 0;
    /** Re-dispatches after a faulted attempt (excludes the first try). */
    std::size_t retries = 0;
    /** Batches re-routed to the CPU engine (fallback or open breaker). */
    std::size_t fallback_batches = 0;
    /** Breaker openings (at the threshold, or a failed probe). */
    std::size_t breaker_opens = 0;
    /** Modeled time lost to faulted attempts (partial stage costs). */
    SimTime fault_wasted;
    /** Modeled backoff delay paid before retries. */
    SimTime retry_backoff;

    /** End-to-end modeled latency of completed requests, seconds. */
    DistSummary latency;
    /** Requests per dispatched batch. */
    DistSummary batch_requests;
    /** Rows per dispatched batch. */
    DistSummary batch_rows;

    StageTotals stage_totals;
    /** Indexed by DeviceClass (kCpu, kGpu, kFpga). */
    DeviceServeStats device[3];

    /** Earliest arrival and latest completion seen (modeled). */
    SimTime first_arrival;
    SimTime last_finish;

    /** last_finish - first_arrival; zero before the first completion. */
    SimTime Makespan() const;

    /** Completed requests per modeled second over the makespan. */
    double ThroughputRps() const;

    /** Scored rows per modeled second over the makespan. */
    double RowThroughput() const;

    /** Multi-line human-readable rendering. */
    std::string ToString() const;
};

/** Thread-safe accumulator behind ServiceSnapshot. */
class ServiceStats {
 public:
    void RecordSubmitted();
    void RecordAdmitted();
    void RecordRejected();
    void RecordExpired(SimTime arrival, SimTime finish);

    /** One coalesced dispatch on @p device. */
    void RecordBatch(DeviceClass device, std::size_t num_requests,
                     std::size_t num_rows, SimTime busy, bool cold);

    /** One completed member of a dispatched batch. */
    void RecordCompleted(const RequestTiming& timing, SimTime arrival,
                         SimTime finish, bool degraded);

    /** One member whose batch exhausted every permitted retry. */
    void RecordFailed(SimTime arrival, SimTime finish);

    /**
     * This accumulator's counters plus the fault, retry, fallback and
     * breaker counters @p lanes keeps for each device class.
     */
    ServiceSnapshot Snapshot(const DeviceLanes& lanes) const;

    /**
     * Requests that reached a terminal state
     * (completed + rejected + expired + failed).
     */
    std::size_t Settled() const;

    /**
     * Zeroes every counter and distribution for a fresh measurement
     * phase (DeviceLanes::ResetCounters does the lanes' share).
     * In-flight requests settle into the new phase's counters, so a
     * snapshot taken mid-flight can show completions without
     * admissions.
     */
    void Reset();

 private:
    mutable std::mutex mutex_;
    ServiceSnapshot totals_;
    bool any_arrival_ = false;
    DistStats latency_;
    DistStats batch_requests_;
    DistStats batch_rows_;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_SERVICE_STATS_H

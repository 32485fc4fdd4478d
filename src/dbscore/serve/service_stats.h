/**
 * @file
 * ScoringService's metrics view.
 *
 * A ServiceSnapshot is what sp_serve_stats reads: admission counters,
 * end-to-end latency quantiles, per-stage modeled-time totals (the
 * paper's Figure-11 taxonomy aggregated across requests), per-device
 * dispatch accounting, and the coalesced-batch size distribution.
 * ScoringService::Stats() folds it out of the one serving core's
 * fleet::FleetStats and its trace domain. DistStats, the bounded
 * distribution behind every latency summary, lives here too.
 */
#ifndef DBSCORE_SERVE_SERVICE_STATS_H
#define DBSCORE_SERVE_SERVICE_STATS_H

#include <array>
#include <cstddef>
#include <string>

#include "dbscore/common/stats.h"
#include "dbscore/serve/device_lanes.h"
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

/** One device class's dispatch accounting and fault-path counters. */
struct DeviceSnapshot : LaneCounters {
    std::size_t dispatches = 0;
    std::size_t requests = 0;
    std::size_t rows = 0;
    /** Dispatches that paid a cold process start. */
    std::size_t cold_invocations = 0;
    /** Modeled busy time summed across lanes. */
    SimTime busy;
    /** Current modeled lane count and autoscale activity. */
    std::size_t lanes = 0;
    std::size_t scale_ups = 0;
    std::size_t scale_downs = 0;

    /** One-line human-readable rendering. */
    std::string ToString() const;
};

/**
 * Modeled time spent in each pipeline stage, summed over the service's
 * per-request stage spans (the trace is the single source of truth for
 * stage attribution). Only completed requests emit share spans.
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
    /** Batches degraded to the CPU engine after their retries. */
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
    std::array<DeviceSnapshot, 3> device;

    /** Earliest arrival and latest completion seen (modeled). */
    SimTime first_arrival;
    SimTime last_finish;

    /** last_finish - first_arrival; zero before the first completion. */
    SimTime Makespan() const;

    /** Completed requests per modeled second over the makespan. */
    double ThroughputRps() const;

    /** Multi-line human-readable rendering. */
    std::string ToString() const;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_SERVICE_STATS_H

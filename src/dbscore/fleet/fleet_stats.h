/**
 * @file
 * The serving core's metrics, sliced per SLO class and per device.
 *
 * FleetStats is the one accumulator behind both views:
 * FleetService::Stats() answers the fleet questions — did gold's tail
 * stay ahead of bronze's under overload (per-class latency and
 * deadline-miss counters), how often did the registry re-pay model
 * builds, what did the autoscaler do — and ScoringService::Stats()
 * folds the same counters into a serve::ServiceSnapshot. Thread-safe;
 * Snapshot() copies its own counters under one lock (the DeviceLanes
 * fault counters under each device class's); Reset() rebaselines for
 * per-phase measurements.
 */
#ifndef DBSCORE_FLEET_FLEET_STATS_H
#define DBSCORE_FLEET_FLEET_STATS_H

#include <array>
#include <cstddef>
#include <mutex>
#include <string>

#include "dbscore/engines/scoring_engine.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/serve/device_lanes.h"
#include "dbscore/serve/request.h"
#include "dbscore/serve/service_stats.h"

namespace dbscore::fleet {

/** One SLO class's terminal-state and latency accounting. */
struct ClassSnapshot {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    /** Rejections split by cause. */
    std::size_t rejected_quota = 0;
    std::size_t rejected_capacity = 0;
    std::size_t completed = 0;
    std::size_t expired = 0;
    std::size_t failed = 0;
    /** Completed answers produced by the CPU degradation path. */
    std::size_t degraded = 0;
    /** Completed answers that finished past the class deadline. */
    std::size_t deadline_misses = 0;
    /** End-to-end modeled latency of completed requests, seconds. */
    serve::DistSummary latency;

    /** Deadline misses over completed answers (0 when none). */
    double MissRate() const;
};

using FleetDeviceSnapshot = serve::DeviceSnapshot;

/** A consistent copy of every fleet counter at one instant. */
struct FleetSnapshot {
    std::array<ClassSnapshot, kNumSloClasses> classes;
    /** Indexed by DeviceClass (kCpu, kGpu, kFpga). */
    std::array<FleetDeviceSnapshot, 3> devices;
    /** Requests and rows per dispatch. */
    serve::DistSummary batch_requests;
    serve::DistSummary batch_rows;
    RegistrySnapshot registry;

    std::size_t tenants = 0;
    std::size_t models = 0;

    /** Earliest arrival and latest completion seen (modeled). */
    SimTime first_arrival;
    SimTime last_finish;

    /** @p counter summed over the classes. */
    std::size_t Sum(std::size_t ClassSnapshot::*counter) const;
    std::size_t Submitted() const { return Sum(&ClassSnapshot::submitted); }
    std::size_t Completed() const { return Sum(&ClassSnapshot::completed); }
    std::size_t Settled() const;
    /** Completed-within-deadline per modeled second over the makespan. */
    double GoodputRps() const;
    SimTime Makespan() const;

    /** Multi-line human-readable rendering. */
    std::string ToString() const;
};

/** Thread-safe accumulator behind FleetSnapshot. */
class FleetStats {
 public:
    /**
     * Counts one @p cls request in @p counter: submitted, admitted or
     * one of the rejection causes.
     */
    void Count(SloClass cls, std::size_t ClassSnapshot::*counter);

    /** One admitted @p cls request answered @p status at @p finish. */
    void RecordAnswer(SloClass cls, serve::RequestStatus status,
                      SimTime arrival, SimTime finish, bool degraded = false,
                      bool deadline_miss = false);

    /** One dispatch of @p num_requests coalesced requests on @p device. */
    void RecordDispatch(DeviceClass device, std::size_t num_requests,
                        std::size_t num_rows, SimTime busy, bool cold);
    void SetLanes(DeviceClass device, std::size_t lanes, int delta);

    /**
     * This accumulator's counters plus the fault, retry, fallback and
     * breaker counters @p lanes keeps for each device class.
     */
    FleetSnapshot Snapshot(const serve::DeviceLanes& lanes) const;

    /**
     * Zeroes every counter and distribution; lane counts (current
     * device facts, not history) survive. DeviceLanes::ResetCounters
     * does the lanes' share.
     */
    void Reset();

 private:
    struct ClassAccum {
        ClassSnapshot totals;
        serve::DistStats latency;
    };

    mutable std::mutex mutex_;
    FleetSnapshot totals_;
    std::array<ClassAccum, kNumSloClasses> classes_;
    serve::DistStats batch_requests_;
    serve::DistStats batch_rows_;
    bool any_arrival_ = false;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_FLEET_STATS_H

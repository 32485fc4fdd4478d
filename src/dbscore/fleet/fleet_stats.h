/**
 * @file
 * Fleet-wide serving metrics, sliced per SLO class and per device.
 *
 * Mirrors serve::ServiceStats but answers the fleet questions: did
 * gold's tail stay ahead of bronze's under overload (per-class latency
 * and deadline-miss counters), how often did the registry re-pay model
 * builds, and what did the autoscaler do. Thread-safe accumulator;
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
    /** Completed strictly within deadline (the bench's goodput). */
    std::size_t Goodput() const;
};

/** One device's fleet-side dispatch accounting. */
struct FleetDeviceSnapshot {
    std::size_t dispatches = 0;
    std::size_t requests = 0;
    std::size_t rows = 0;
    /** Modeled busy time summed across lanes. */
    SimTime busy;
    std::size_t faults = 0;
    std::size_t retries = 0;
    /** Dispatches re-routed to CPU (breaker or final-retry fallback). */
    std::size_t fallbacks = 0;
    std::size_t breaker_opens = 0;
    serve::BreakerState breaker = serve::BreakerState::kClosed;
    /** Current modeled lane count and autoscale activity. */
    std::size_t lanes = 0;
    std::size_t scale_ups = 0;
    std::size_t scale_downs = 0;
};

/** A consistent copy of every fleet counter at one instant. */
struct FleetSnapshot {
    std::array<ClassSnapshot, kNumSloClasses> classes;
    /** Indexed by DeviceClass (kCpu, kGpu, kFpga). */
    std::array<FleetDeviceSnapshot, 3> devices;
    RegistrySnapshot registry;

    std::size_t tenants = 0;
    std::size_t models = 0;

    /** Earliest arrival and latest completion seen (modeled). */
    SimTime first_arrival;
    SimTime last_finish;

    std::size_t Submitted() const;
    std::size_t Completed() const;
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
    void RecordSubmitted(SloClass cls);
    void RecordAdmitted(SloClass cls);
    void RecordRejectedQuota(SloClass cls);
    void RecordRejectedCapacity(SloClass cls);
    void RecordExpired(SloClass cls, SimTime arrival, SimTime finish);
    void RecordFailed(SloClass cls, SimTime arrival, SimTime finish);
    void RecordCompleted(SloClass cls, SimTime arrival, SimTime finish,
                         bool degraded, bool deadline_miss);

    void RecordDispatch(DeviceClass device, std::size_t num_requests,
                        std::size_t num_rows, SimTime busy);
    void SetLanes(DeviceClass device, std::size_t lanes, int delta);

    /** Requests in a terminal state (completed+rejected+expired+failed). */
    std::size_t Settled() const;

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
    bool any_arrival_ = false;

    void TouchSpanLocked(SimTime arrival, SimTime finish);
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_FLEET_STATS_H

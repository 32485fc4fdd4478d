/**
 * @file
 * Load-driven worker-pool autoscaling for the fleet's devices.
 *
 * Each simulated device serves through a pool of modeled *lanes*
 * (parallel service horizons). The autoscaler grows a pool when its
 * backlog-per-lane or recent deadline-miss rate says queueing delay —
 * not device speed — dominates latency, and shrinks it when lanes sit
 * idle. The policy itself is a pure function of observed signals so it
 * can be unit-tested without threads; FleetService samples signals and
 * applies the returned delta under its scheduler lock. Its thresholds,
 * floor and cooldown are constants; a caller sets only whether it runs
 * and the largest pool.
 */
#ifndef DBSCORE_FLEET_AUTOSCALER_H
#define DBSCORE_FLEET_AUTOSCALER_H

#include <cstddef>

#include "dbscore/common/sim_time.h"

namespace dbscore::fleet {

/** Fewest lanes a pool shrinks to. */
inline constexpr std::size_t kMinLanes = 1;
/** Scale up when queued batches per lane exceed this. */
inline constexpr double kScaleUpQueuePerLane = 4.0;
/**
 * Scale up when the deadline-miss fraction over the sampling window
 * exceeds this (even with a shallow queue — slow lanes miss deadlines
 * without ever looking backlogged).
 */
inline constexpr double kScaleUpMissRate = 0.10;
/** Scale down when queued batches per lane fall below this. */
inline constexpr double kScaleDownQueuePerLane = 0.25;
/** Minimum modeled time between changes on one device. */
inline constexpr SimTime kScaleCooldown = SimTime::Millis(100.0);

/** Autoscaling settings, per device. */
struct AutoscalerConfig {
    bool enabled = true;
    std::size_t max_lanes = 8;
};

/** What the scheduler observed about one device since the last check. */
struct DeviceLoadSignals {
    std::size_t lanes = 1;
    /** Batches waiting in the device queue right now. */
    std::size_t queue_depth = 0;
    /** Completions in the sampling window. */
    std::size_t window_completions = 0;
    /** Deadline misses among those completions. */
    std::size_t window_deadline_misses = 0;
    /** Modeled now, and when this device last changed lane count. */
    SimTime now;
    SimTime last_change;
};

/** +n lanes, -n lanes, or 0 (hold). */
struct AutoscaleDecision {
    int delta = 0;
    /** Static string naming the trigger ("backlog", "miss-rate", ...). */
    const char* reason = "hold";
};

/** The pure scaling policy; see file comment. */
AutoscaleDecision Autoscale(const AutoscalerConfig& config,
                            const DeviceLoadSignals& signals);

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_AUTOSCALER_H

#include "dbscore/fleet/autoscaler.h"

namespace dbscore::fleet {

AutoscaleDecision
Autoscale(const AutoscalerConfig& config, const DeviceLoadSignals& signals)
{
    AutoscaleDecision hold;
    if (!config.enabled || signals.lanes == 0) {
        return hold;
    }
    if (signals.now - signals.last_change < kScaleCooldown &&
        signals.last_change > SimTime()) {
        return hold;
    }

    const double per_lane = static_cast<double>(signals.queue_depth) /
                            static_cast<double>(signals.lanes);
    const double miss_rate =
        signals.window_completions == 0
            ? 0.0
            : static_cast<double>(signals.window_deadline_misses) /
                  static_cast<double>(signals.window_completions);

    if (signals.lanes < config.max_lanes) {
        if (per_lane > kScaleUpQueuePerLane) {
            return {+1, "backlog"};
        }
        if (miss_rate > kScaleUpMissRate &&
            signals.window_completions > 0) {
            return {+1, "miss-rate"};
        }
    }
    if (signals.lanes > kMinLanes &&
        per_lane < kScaleDownQueuePerLane && miss_rate == 0.0) {
        return {-1, "idle"};
    }
    return hold;
}

}  // namespace dbscore::fleet

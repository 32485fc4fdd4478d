/**
 * @file
 * The device-lane executor: the one fault -> retry -> CPU-degrade loop
 * of the serving dispatcher.
 *
 * fleet::FleetService's dispatcher — ScoringService is that core with
 * one lane per device class, the fleet an autoscaled lane pool per
 * class — reserves every placed dispatch (DeviceLanes::Reserve) and
 * runs it (DeviceLanes::Run) before the next one. Per device class
 * DeviceLanes owns the modeled lane horizons, the ExternalScriptRuntime
 * (one warm-process pool, priced by the default ExternalRuntimeParams
 * like the registry's rebuilds), the circuit breaker, the backoff
 * jitter stream and the fault counters that FleetStats reads. A faulted
 * attempt is charged the stages it consumed, retried after backoff
 * (never past a rider's deadline), then degraded to the CPU engine,
 * which fails the dispatch only once its own attempts are spent; each
 * step is a sim-clock span (kFault, kRetryBackoff, kFallback,
 * kBreaker). The attempt budget, the backoff and the breaker are
 * constants: every caller runs the same fault path.
 */
#ifndef DBSCORE_SERVE_DEVICE_LANES_H
#define DBSCORE_SERVE_DEVICE_LANES_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "dbscore/core/scheduler.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/trace/trace.h"

namespace dbscore::serve {

/**
 * Dispatch attempts per device, first try included. A dispatch whose
 * accelerator attempts are spent degrades to the CPU with a fresh
 * budget; one whose CPU attempts are spent fails.
 */
inline constexpr std::size_t kMaxAttempts = 4;

/**
 * Backoff before the first retry. Retry i waits kInitialBackoff times
 * 2^(i-1), plus deterministic jitter of up to 20% of that, a pure
 * function of (device, per-device attempt counter), so a replayed run
 * re-draws identical jitter. A rider whose deadline precedes the
 * retry's dispatch time fails instead of riding a retry it could never
 * use.
 */
inline constexpr SimTime kInitialBackoff = SimTime::Millis(1.0);

/** Consecutive faulted attempts on a device that open its breaker. */
inline constexpr std::size_t kBreakerThreshold = 5;

/**
 * Modeled cooldown of an open breaker: dispatches ready before
 * open-time + cooldown are placed elsewhere; the first one at or after
 * it that reaches the device runs as the half-open probe.
 */
inline constexpr SimTime kBreakerCooldown = SimTime::Millis(200.0);

/**
 * Circuit-breaker state of one device class. Closed is healthy;
 * K consecutive dispatch failures open the breaker (new work goes
 * elsewhere); after a cooldown the next dispatch runs as a half-open
 * probe — success closes the breaker, another fault re-opens it.
 */
enum class BreakerState {
    kClosed,
    kOpen,
    kHalfOpen,
};

const char* BreakerStateName(BreakerState state);

/** One device class's fault-path counters. */
struct LaneCounters {
    /** Dispatch attempts lost to injected faults. */
    std::size_t faults = 0;
    /** Re-dispatches after a faulted attempt. */
    std::size_t retries = 0;
    /** Dispatches degraded to the CPU after their retries were spent. */
    std::size_t fallbacks = 0;
    /** Transitions into kOpen (at the threshold or a failed probe). */
    std::size_t breaker_opens = 0;
    /** Modeled time lost to faulted attempts (partial stage costs). */
    SimTime fault_wasted;
    /** Modeled backoff paid before retries. */
    SimTime retry_backoff;
    /** Current breaker state; survives ResetCounters(). */
    BreakerState breaker = BreakerState::kClosed;
};

/** One attempt's modeled stage costs: the paper's overhead taxonomy. */
struct AttemptCost {
    InvocationCost invocation;
    SimTime model_pre;
    SimTime transfer_to;
    SimTime transfer_from;
    SimTime data_pre;
    OffloadBreakdown scoring;

    SimTime Transfer() const { return transfer_to + transfer_from; }

    /** Service time of the attempt when it succeeds. */
    SimTime
    Total() const
    {
        return invocation.cost + model_pre + Transfer() + data_pre +
               scoring.Total();
    }
};

/** The model a dispatch scores: its cost cards and shape. */
struct LaneModel {
    const OffloadScheduler* scheduler = nullptr;
    std::uint64_t model_bytes = 0;
    std::size_t num_cols = 0;
};

/** A lane of one device class and its horizon. */
struct LaneSlot {
    std::size_t lane = 0;
    SimTime at;
};

/**
 * One dispatch's cursor through DeviceLanes::Reserve and Run. The
 * caller sets the first attempt's device, backend and rows; Reserve
 * sets its lane, start (`now`) and invocation; Run leaves the last
 * attempt's.
 */
struct LaneRun {
    DeviceClass device = DeviceClass::kCpu;
    BackendKind kind = BackendKind::kCpuSklearn;
    std::size_t lane = 0;
    /** Modeled dispatch time of the current attempt. */
    SimTime now;
    /** Rows still riding; 0 once every rider missed a retry deadline. */
    std::size_t rows = 0;
    /** Degraded to the CPU engine after its accelerator attempts. */
    bool degraded = false;
    /** Attempts made so far, across devices. */
    std::size_t attempts = 0;
    AttemptCost cost;
    /** Set by Run: the last attempt succeeded. */
    bool completed = false;
};

/**
 * Before a retry at its first argument, fails every rider whose
 * deadline precedes it at run.now and returns the rows still riding;
 * 0 ends the dispatch.
 */
using DropPastDeadline = std::function<std::size_t(SimTime, const LaneRun&)>;

/** Lanes, breakers and the attempt loop per device class. */
class DeviceLanes {
 public:
    /** @p lanes modeled lanes per device class. */
    explicit DeviceLanes(std::size_t lanes);

    DeviceLanes(const DeviceLanes&) = delete;
    DeviceLanes& operator=(const DeviceLanes&) = delete;

    /**
     * Breaker admission at @p ready: the earliest lane of @p device, or
     * nullopt while its breaker is open and cooling down. Past the
     * cooldown the breaker turns half-open and the next dispatch to
     * reach the device is the probe. The CPU has nowhere to re-route
     * to, so it is always admitted.
     */
    std::optional<LaneSlot> Admit(DeviceClass device, SimTime ready,
                                  const trace::SpanContext& parent);

    /**
     * Dispatch-time reservation for @p run (device and kind set):
     * invokes the device's runtime for the first attempt (its warm or
     * cold state advances), takes the earliest lane and starts at
     * max(@p ready, its horizon). The caller then expires the riders
     * whose deadline that start overruns and Runs the rest.
     */
    void Reserve(LaneRun& run, SimTime ready);

    /**
     * Resizes @p device's pool. New lanes start at its earliest
     * horizon (no retroactive service); shrinking keeps the
     * earliest-free lanes.
     */
    void ResizeLanes(DeviceClass device, std::size_t lanes);

    /** Lanes in @p device's pool: the one record of its size. */
    std::size_t Lanes(DeviceClass device) const;

    /**
     * Runs @p run's reserved dispatch of run.rows to its end: prices
     * the first attempt and holds its lane through that attempt's
     * finish, then attempt, retry after backoff, degrade to the CPU —
     * charging the lanes it uses and stepping the breakers. Its spans
     * parent to @p parent, the oldest rider still live, which
     * @p drop may move. When !run.completed the riders still live are
     * unanswered.
     */
    void Run(const LaneModel& model, LaneRun& run,
             const trace::SpanContext& parent, const DropPastDeadline& drop);

    /** Counters of each device class, indexed by DeviceClass. */
    std::array<LaneCounters, 3> Counters() const;

    /** Zeroes the counters; breaker states (current facts) survive. */
    void ResetCounters();

 private:
    /** One device class; the mutex guards all but runtime (self-locking). */
    struct Device {
        mutable std::mutex mutex;
        /** Modeled time each lane next goes idle. */
        std::vector<SimTime> lanes;
        std::unique_ptr<ExternalScriptRuntime> runtime;
        /** Consecutive faulted attempts since the last success. */
        std::size_t consecutive_failures = 0;
        /** While open: modeled time the half-open probe becomes legal. */
        SimTime breaker_open_until;
        /** Position in this device's deterministic jitter stream. */
        std::uint64_t attempt_seq = 0;
        LaneCounters counters;
    };

    Device& At(DeviceClass d) { return devices_[static_cast<int>(d)]; }
    const Device& At(DeviceClass d) const
    {
        return devices_[static_cast<int>(d)];
    }
    static LaneSlot EarliestLocked(const Device& device);

    /**
     * Prices one attempt of @p rows on @p device / @p kind after
     * @p invocation (the runtime's warm or cold start); the transfers
     * marshal @p marshaled_rows.
     */
    AttemptCost Price(InvocationCost invocation, DeviceClass device,
                      BackendKind kind, const LaneModel& model,
                      std::size_t rows, std::size_t marshaled_rows) const;
    /**
     * Exponential backoff + deterministic jitter before retry number
     * @p retry_index (1 = first retry) on @p device; see
     * kInitialBackoff.
     */
    SimTime NextBackoff(DeviceClass device, std::size_t retry_index);
    void OnFault(DeviceClass device, SimTime wasted, SimTime now,
                 const trace::SpanContext& parent);
    void OnSuccess(DeviceClass device, std::size_t lane, SimTime finish,
                   const trace::SpanContext& parent);
    /** Raises @p lane's horizon to @p until (a retired lane is gone). */
    static void ChargeLocked(Device& device, std::size_t lane,
                             SimTime until);

    std::array<Device, 3> devices_;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_DEVICE_LANES_H

/**
 * @file
 * Multi-tenant fleet serving: registry + SLO scheduling + autoscaling.
 *
 * FleetService is the layer above ScoringService's single-tenant
 * front door: thousands of tenants, each bound to a model and an SLO
 * class, share three simulated devices. The pieces:
 *
 *  - **ModelRegistry** keeps hot models' kernels warm under a byte
 *    budget; a request for an evicted model pays the modeled rebuild
 *    (the paper's model-deserialization overhead, amortized only as
 *    well as the cache lets it be).
 *  - **Admission** charges each tenant's token bucket (per-class
 *    quota) and bounds the central queue; rejects are immediate
 *    backpressure, split by cause (quota vs capacity).
 *  - **Weighted fair queueing** orders the central backlog so gold
 *    outruns bronze under overload without starving it.
 *  - **Placement** picks the earliest-finishing device lane from each
 *    model's per-backend estimates, skipping devices whose breaker is
 *    open, and reserves that lane at dispatch. The dispatch then runs
 *    through serve::DeviceLanes — the serve layer's own attempt loop,
 *    breakers (half-open probe included) and fault counters — so
 *    faulted dispatches retry with backoff and degrade to CPU exactly
 *    as they do there.
 *  - **Autoscaling** grows and shrinks each device's modeled lane
 *    pool (held by DeviceLanes) from queue-depth and deadline-miss
 *    signals.
 *
 * Concurrency vs. time follows the house rule: machinery real (one
 * dispatcher thread, one worker thread per device class, real CVs),
 * latencies modeled (SimTime lane horizons), results machine-
 * independent. The dispatcher commits every modeled step of a request
 * in dispatch order: the registry acquire, placement, the lane
 * reservation, the whole DeviceLanes::Run loop, the stats and the
 * autoscaler's samples. Device workers only score payloads and reply,
 * so modeled outcomes are a function of the dispatch sequence alone —
 * never of how fast real threads run. Predictions are always computed
 * through the registry's shared CompiledModel, so a reply is
 * bit-identical whether it was served warm, re-warmed after eviction,
 * or degraded to the CPU path.
 */
#ifndef DBSCORE_FLEET_FLEET_SERVICE_H
#define DBSCORE_FLEET_FLEET_SERVICE_H

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbscore/common/thread_pool.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/fleet/autoscaler.h"
#include "dbscore/fleet/fleet_stats.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/fleet/wfq.h"
#include "dbscore/serve/device_lanes.h"
#include "dbscore/serve/request.h"

namespace dbscore::fleet {

/** Fleet configuration. */
struct FleetConfig {
    RegistryConfig registry;
    /** Per-class SLO ladder; defaults to DefaultSloPolicy. */
    std::array<SloPolicy, kNumSloClasses> slo = {
        DefaultSloPolicy(SloClass::kGold),
        DefaultSloPolicy(SloClass::kSilver),
        DefaultSloPolicy(SloClass::kBronze),
    };
    AutoscalerConfig autoscaler;
    serve::RetryPolicy retry;
    serve::BreakerPolicy breaker;
    /** Stage costs of each device worker's external runtime. */
    ExternalRuntimeParams runtime_params;
    /** Central WFQ capacity; past it admissions reject (capacity). */
    std::size_t queue_capacity = 4096;
    /** Modeled lanes each device starts with. */
    std::size_t initial_lanes = 2;
    /**
     * Dispatch window: a device's worker holds up to lanes × this many
     * committed requests awaiting scoring and reply; past it the
     * dispatcher waits before handing over more, so an overload
     * backlog stays in the central WFQ. The window acts on the wall
     * clock only: it delays a hand-over but never redirects a
     * placement or moves a modeled time.
     */
    double window_per_lane = 2.0;
    /** Degrade to CPU after exhausted accelerator retries. */
    bool cpu_fallback = true;
    /**
     * Start with dispatch gated: requests admit and queue but nothing
     * dispatches until ReleaseDispatch(). Lets benches and tests load
     * the weighted fair queue to a known backlog first, making the
     * gold/bronze differentiation deterministic.
     */
    bool hold_dispatch = false;
};

/** One tenant-scoped scoring request. */
struct FleetRequest {
    std::uint64_t tenant_id = 0;
    /** Modeled batch size (used for costing even when rows is empty). */
    std::size_t num_rows = 1;
    /**
     * Optional row-major payload (num_rows × the model's columns).
     * When present, the reply carries functional predictions; a
     * payload of any other size fails the request.
     */
    std::vector<float> rows;
    /** Modeled arrival; unset = stamped with the fleet clock. */
    std::optional<SimTime> arrival;
};

/** Terminal reply for one fleet request. */
struct FleetReply {
    serve::RequestStatus status = serve::RequestStatus::kRejected;
    SloClass slo = SloClass::kBronze;
    /** Device that produced the answer (valid when completed). */
    DeviceClass device = DeviceClass::kCpu;
    BackendKind backend = BackendKind::kCpuSklearn;
    /** Served by the CPU degradation path after accelerator faults. */
    bool degraded = false;
    /** Completed, but after the class deadline. */
    bool deadline_miss = false;
    /**
     * The dispatch that answered missed the registry (a cold or
     * evicted model) and paid the modeled build.
     */
    bool registry_miss = false;
    std::size_t attempts = 0;
    SimTime arrival;
    SimTime finish;
    std::vector<float> predictions;
    std::string error;

    SimTime Latency() const { return finish - arrival; }
};

/** The multi-tenant fleet front door; see file comment. */
class FleetService {
 public:
    FleetService(const HardwareProfile& profile, FleetConfig config);
    ~FleetService();

    FleetService(const FleetService&) = delete;
    FleetService& operator=(const FleetService&) = delete;

    /**
     * Registers a model spec with the registry (cheap; nothing is
     * compiled until a request needs it). Callable any time.
     */
    void RegisterModel(const std::string& id, const TreeEnsemble& model,
                       const ModelStats& stats);

    /**
     * Binds @p tenant_id to @p model_id with service class @p cls.
     * Callable any time. @throws NotFound on an unknown model,
     * InvalidArgument on a duplicate tenant.
     */
    void RegisterTenant(std::uint64_t tenant_id, const std::string& model_id,
                        SloClass cls);

    std::size_t NumTenants() const;

    /**
     * Replaces one class's SLO policy. Must precede Start(). Tenants
     * already registered keep the token bucket built from the policy
     * that was current at their RegisterTenant call; register tenants
     * after their class policy is final (or set it via FleetConfig).
     */
    void SetSloPolicy(SloClass cls, const SloPolicy& policy);

    /** Launches the dispatcher and device worker threads. */
    void Start();

    /** Drains in-flight work, then stops every thread. Idempotent. */
    void Stop();

    /** Blocks until every submitted request reached a terminal state. */
    void Drain();

    bool running() const;

    /**
     * Opens the dispatch gate (no-op unless config.hold_dispatch).
     * Admission is never gated — only dispatch.
     */
    void ReleaseDispatch();

    /**
     * Submits one request; the future resolves at its terminal state.
     * Unknown tenants, quota breaches, and a full central queue
     * reject immediately. Thread-safe.
     */
    std::future<FleetReply> Submit(FleetRequest request);

    /** Submit + wait convenience. */
    FleetReply ScoreSync(FleetRequest request);

    /** Metrics snapshot (counters + registry), callable while running. */
    FleetSnapshot Stats() const;

    /** Zeroes counters for a fresh measurement phase. */
    void ResetStats();

    /** Evicts every resident model (tests: force the re-warm tax). */
    void EvictAllModels();

    const ModelRegistry& registry() const { return registry_; }
    const FleetConfig& config() const { return config_; }
    std::uint32_t trace_domain() const { return trace_domain_; }

 private:
    struct Pending {
        FleetRequest request;
        SloClass cls = SloClass::kBronze;
        std::uint32_t model_idx = 0;
        SimTime arrival;
        trace::SpanContext trace;
        std::promise<FleetReply> promise;
    };
    using PendingPtr = std::unique_ptr<Pending>;

    /**
     * A committed request waiting on a device worker. The dispatcher
     * already ran its whole modeled dispatch (lanes, faults, retries,
     * degrade) and recorded its stats; the worker only scores the
     * payload, if any, into the reply and fulfills it.
     */
    struct DeviceWork {
        PendingPtr pending;
        WarmModelPtr model;
        FleetReply reply;
    };

    /** One simulated device: its worker's queue and its lane pool. */
    struct Device {
        // Hand-off to the device's worker, guarded by mutex.
        std::deque<DeviceWork> queue;
        std::mutex mutex;
        /** Wakes the worker: new work, or stop. */
        std::condition_variable cv;
        /** Wakes the dispatcher: a dispatch-window slot freed. */
        std::condition_variable room;
        bool stop = false;
        /** Work popped by the worker and not yet replied. */
        std::size_t inflight = 0;

        // Modeled state, owned by the dispatcher thread (no lock).
        /** Lanes in the device's pool (lanes_ holds their horizons). */
        std::size_t lanes = 0;
        /** Autoscaler sampling window. */
        std::size_t window_completions = 0;
        std::size_t window_deadline_misses = 0;
        SimTime last_scale_change;
        /**
         * The latest modeled finishes of the dispatches committed to
         * this device, at most depth_cap_ of them: its queue-depth
         * signal. Those in the future of a sample's `now` number
         * min(committed dispatches still running at `now`,
         * depth_cap_), which the autoscaler cannot tell from the full
         * count, so memory stays bounded under a sustained modeled
         * backlog.
         */
        std::multiset<SimTime> running;
    };

    void DispatcherLoop();
    /** Commits @p pending's whole modeled dispatch; see file comment. */
    void Dispatch(PendingPtr pending, const std::string& model_id,
                  std::size_t central_backlog);
    /**
     * The completed half of a dispatch: records it and hands the reply
     * to @p placed's worker for scoring.
     */
    void Complete(Device& placed, PendingPtr pending, WarmModelPtr model,
                  const serve::LaneRun& run, SimTime ready, SimTime start,
                  SimTime deadline_at, FleetReply reply);
    /** Fails @p pending at modeled time @p at with @p why. */
    void Fail(Pending& pending, FleetReply reply, SimTime at,
              std::string why);
    /** Records a dispatch committed to @p device until @p finish. */
    void Commit(Device& device, SimTime finish);
    /** Waits (wall clock) for a window slot on @p device, then enqueues. */
    void HandOff(Device& device, DeviceWork work);
    void WorkerLoop(int device_index);
    /** Fulfills @p pending with @p reply and counts it settled. */
    void Answer(Pending& pending, FleetReply reply);
    void MaybeAutoscale(SimTime now, std::size_t central_backlog);
    void SettleOne();

    HardwareProfile profile_;
    FleetConfig config_;
    /**
     * Queue depth past which every autoscaler decision is the same:
     * more than the larger threshold per lane at the largest pool.
     */
    std::size_t depth_cap_;
    std::uint32_t trace_domain_;
    ModelRegistry registry_;
    FleetStats stats_;

    /** Compact per-tenant record; sized for 10^6-tenant fleets. */
    struct TenantState {
        std::uint32_t model_idx = 0;
        SloClass cls = SloClass::kBronze;
        TokenBucket bucket;
    };

    mutable std::mutex admission_mutex_;
    std::condition_variable dispatcher_cv_;
    /** Built at Start() so SetSloPolicy weights take effect. */
    std::unique_ptr<WeightedFairQueue<PendingPtr>> wfq_;
    std::unordered_map<std::uint64_t, TenantState> tenants_;
    std::vector<std::string> model_ids_;
    std::unordered_map<std::string, std::uint32_t> model_index_;
    bool running_ = false;
    bool stop_requested_ = false;
    bool dispatch_held_ = false;
    /** Fleet modeled clock: max arrival stamped so far. */
    SimTime modeled_clock_;
    std::size_t submitted_ = 0;

    mutable std::mutex settle_mutex_;
    std::condition_variable settle_cv_;
    std::size_t settled_ = 0;

    std::array<Device, 3> devices_;
    /** Lane pools, breakers, runtimes and fault counters per device. */
    serve::DeviceLanes lanes_;
    std::unique_ptr<ThreadPool> threads_;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_FLEET_SERVICE_H

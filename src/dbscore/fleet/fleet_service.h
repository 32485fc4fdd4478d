/**
 * @file
 * The one serving core: registry + SLO scheduling + coalescing +
 * autoscaling over three simulated devices.
 *
 * FleetService is the multi-tenant front door: thousands of tenants,
 * each bound to a model and an SLO class, share three simulated
 * devices. serve::ScoringService is the same core configured for one
 * implicit tenant: one lane per device and no autoscaling, models
 * built at registration and never evicted, its coalescing window and
 * per-request deadlines. The pieces:
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
 *  - **Coalescing** (serve::BatchCoalescer) groups same-model requests
 *    into one dispatch. Fleet requests use window zero: each
 *    dispatches alone.
 *  - **Placement** has one rule for both front doors: the
 *    earliest-finishing device lane from each model's per-backend
 *    estimates, skipping accelerators whose breaker is open, reserved
 *    at dispatch. The dispatch then runs through serve::DeviceLanes —
 *    the attempt loop, breakers (half-open probe included) and fault
 *    counters — so faulted dispatches retry with backoff and degrade
 *    to the CPU, and fail only once the CPU's attempts are spent.
 *  - **Autoscaling** grows and shrinks each device's modeled lane
 *    pool (held by DeviceLanes) from queue-depth and deadline-miss
 *    signals.
 *
 * Concurrency vs. time follows the house rule: machinery real (one
 * dispatcher thread, one scorer thread per hardware thread, real CVs),
 * latencies modeled (SimTime lane horizons), results machine-
 * independent. The dispatcher commits every modeled step of a dispatch
 * in dispatch order: the registry acquire, breaker admission,
 * placement, the lane reservation, the whole DeviceLanes::Run loop,
 * the stats and the autoscaler's samples. It then queues the committed
 * dispatch on one FIFO that every scorer serves, whatever device the
 * dispatch was placed on: a scorer only scores the members' payloads
 * and replies, in member order, so modeled outcomes are a function of
 * the dispatch sequence alone — never of how fast real threads run or
 * which scorer takes which dispatch. Predictions are always computed
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
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbscore/common/thread_pool.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/fleet/autoscaler.h"
#include "dbscore/fleet/fleet_stats.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/fleet/wfq.h"
#include "dbscore/serve/batch_coalescer.h"
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
    /** Central WFQ capacity; past it admissions reject (capacity). */
    std::size_t queue_capacity = 4096;
    /** Modeled lanes each device starts with. */
    std::size_t initial_lanes = 2;
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

/** Terminal reply for one fleet request: a ScoreReply plus its tenant's view. */
struct FleetReply : serve::ScoreReply {
    SloClass slo = SloClass::kBronze;
    SimTime arrival;

    SimTime Latency() const { return finish - arrival; }
};

/** The serving core and its multi-tenant front door; see file comment. */
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

    /**
     * Replaces one class's SLO policy. Must precede Start(). Tenants
     * already registered keep the token bucket built from the policy
     * that was current at their RegisterTenant call; register tenants
     * after their class policy is final (or set it via FleetConfig).
     */
    void SetSloPolicy(SloClass cls, const SloPolicy& policy);

    /**
     * Launches the dispatcher and one scorer per hardware thread
     * (std::thread::hardware_concurrency(), at least 1).
     */
    void Start();

    /**
     * Drains in-flight work, then stops every thread; requests queued
     * before a Start that never came are rejected. Idempotent, and
     * final: a stopped service cannot restart.
     */
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

 protected:
    /**
     * ScoringService's shape of the core (see the file comment); with
     * @p resident_models, models are built at registration.
     */
    FleetService(const HardwareProfile& profile, FleetConfig config,
                 const serve::CoalescerConfig& coalescer,
                 bool resident_models);

    /**
     * ScoringService's admission for its one implicit tenant (class 0,
     * per-request deadlines). Requests may queue before Start();
     * unstamped arrivals take the latest modeled arrival or finish, so
     * a synchronous caller's next request follows its last reply.
     */
    serve::PendingScorePtr SubmitScore(serve::ScoreRequest request);

 private:
    using Pending = serve::PendingRequest;
    using Batch = serve::Batch;

    /** A fleet request's handle: hands its reply to the caller's future. */
    class Ticket;

    /**
     * A committed dispatch waiting for a scorer. The dispatcher already
     * ran its whole modeled dispatch (lanes, faults, retries, degrade)
     * and recorded its stats; the scorer only scores the members'
     * payloads into their replies and fulfills them.
     */
    struct DeviceWork {
        std::vector<Pending> members;
        std::vector<serve::ScoreReply> replies;
        WarmModelPtr model;
        /** The placement device (the batch-execute span's attribute). */
        DeviceClass device = DeviceClass::kCpu;
    };

    /**
     * One simulated device's modeled state, owned by the dispatcher
     * thread (no lock).
     */
    struct Device {
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

    /**
     * The one admission path: gives @p pending its trace root, queues
     * it, releases @p lock (on admission_mutex_), emits the admission
     * span and wakes the dispatcher.
     */
    void Admit(std::unique_lock<std::mutex>& lock, Pending pending,
               double submit_wall_us);
    void DispatcherLoop();
    /** Commits @p batch's whole modeled dispatch; see file comment. */
    void Dispatch(Batch batch, std::size_t central_backlog);
    /**
     * Sets run.device and run.kind for a dispatch: the device lane that
     * finishes it earliest among those whose breaker admits it.
     */
    void Place(const OffloadScheduler& scheduler, SimTime ready,
               const trace::SpanContext& parent, serve::LaneRun& run);
    /**
     * The completed half of a dispatch: records it and queues the
     * replies for a scorer.
     */
    void Complete(Device& placed, std::vector<Pending> live,
                  WarmModelPtr model, const serve::LaneRun& run,
                  const serve::ScoreReply& base, SimTime batch_ready,
                  SimTime ready, SimTime start);
    /**
     * Answers @p status (with @p reply's fields) at @p answer_at for
     * each of @p members whose deadline precedes @p at, removes it, and
     * returns the rows still riding.
     */
    std::size_t Drop(std::vector<Pending>& members, SimTime at,
                     const serve::ScoreReply& reply,
                     serve::RequestStatus status, SimTime answer_at,
                     const char* why);
    /** Answers @p pending @p status at modeled time @p at with @p why. */
    void Settle(Pending& pending, serve::ScoreReply reply,
                serve::RequestStatus status, SimTime at, std::string why);
    /** Records a dispatch committed to @p device until @p finish. */
    void Commit(Device& device, SimTime finish);
    /** Waits (wall clock) for a scoring-window slot, then enqueues. */
    void HandOff(DeviceWork work);
    void ScorerLoop();
    /** Emits @p pending's root span, fulfills it and counts it settled. */
    void Answer(Pending& pending, serve::ScoreReply reply);
    void MaybeAutoscale(SimTime now, std::size_t central_backlog);

    FleetConfig config_;
    serve::CoalescerConfig coalescer_;
    bool resident_models_;
    /**
     * Queue depth past which every autoscaler decision is the same:
     * more than the scale-up threshold per lane at the largest pool.
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
    WeightedFairQueue<Pending> wfq_;
    std::unordered_map<std::uint64_t, TenantState> tenants_;
    std::vector<std::string> model_ids_;
    /** Feature columns of each model, indexed like model_ids_. */
    std::vector<std::size_t> model_cols_;
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
    /** Latest modeled finish answered (serve's live stamps). */
    SimTime latest_finish_;

    std::array<Device, 3> devices_;
    /**
     * Lane pools (the one record of each device's lane count),
     * breakers, runtimes and fault counters per device.
     */
    serve::DeviceLanes lanes_;

    // Hand-off of committed dispatches to the scorers, guarded by
    // work_mutex_.
    std::mutex work_mutex_;
    std::deque<DeviceWork> work_;
    /** Wakes a scorer: new work, or stop. */
    std::condition_variable work_cv_;
    /** Wakes the dispatcher: a scoring-window slot freed. */
    std::condition_variable room_cv_;
    bool work_stop_ = false;
    /** Work popped by a scorer and not yet replied. */
    std::size_t work_inflight_ = 0;
    /** Scorer threads: one per hardware thread. */
    const std::size_t scorers_;

    /** The dispatcher and the scorers. */
    std::unique_ptr<ThreadPool> threads_;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_FLEET_SERVICE_H

#include "dbscore/fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/engines/scoring_engine.h"

namespace dbscore::fleet {

using serve::RequestStatus;
using serve::ScoreReply;
using trace::ScopedSpan;
using trace::SpanContext;
using trace::StageKind;
using trace::TraceCollector;

namespace {

/**
 * Wall-clock idle interval after which open batches are flushed, so a
 * lone synchronous caller is never stranded waiting for batchmates
 * that will not come. Liveness only — it never enters modeled times.
 */
constexpr std::chrono::milliseconds kFlushInterval{2};

/**
 * The scorers hold up to scorers × this many committed dispatches
 * awaiting scoring and reply; past it the dispatcher waits before
 * handing over more, so an overload backlog stays in the central WFQ.
 * The window acts on the wall clock only: it delays a hand-over but
 * never redirects a placement or moves a modeled time.
 */
constexpr std::size_t kWindowPerScorer = 2;

/**
 * Lanes each device's pool starts with. Rejects a zero count here, not
 * in the constructor body: the pools are built before the body runs.
 */
std::size_t
InitialLanes(const FleetConfig& config)
{
    if (config.initial_lanes == 0) {
        throw InvalidArgument("fleet: zero initial lanes");
    }
    return config.initial_lanes;
}

std::array<double, kNumSloClasses>
Weights(const std::array<SloPolicy, kNumSloClasses>& slo)
{
    return {slo[0].weight, slo[1].weight, slo[2].weight};
}

SimTime
Arrival(const serve::PendingRequest& pending)
{
    return *pending.request.arrival;
}

/** True when @p pending's deadline precedes @p at. */
bool
PastDeadline(const serve::PendingRequest& pending, SimTime at)
{
    const std::optional<SimTime>& deadline = pending.request.deadline;
    return deadline.has_value() && at > Arrival(pending) + *deadline;
}

/** Row-proportional share of an engine breakdown. */
OffloadBreakdown
ScaleBreakdown(const OffloadBreakdown& b, double k)
{
    OffloadBreakdown s;
    s.preprocessing = b.preprocessing * k;
    s.input_transfer = b.input_transfer * k;
    s.setup = b.setup * k;
    s.compute = b.compute * k;
    s.completion_signal = b.completion_signal * k;
    s.result_transfer = b.result_transfer * k;
    s.software_overhead = b.software_overhead * k;
    return s;
}

}  // namespace

class FleetService::Ticket final : public serve::ReplySink {
 public:
    Ticket(SloClass cls, SimTime arrival, std::vector<float> payload)
        : payload(std::move(payload)), cls_(cls), arrival_(arrival)
    {
    }

    std::future<FleetReply> future() { return promise_.get_future(); }

    /** The request's rows; its view in the core shares this ticket. */
    const std::vector<float> payload;

 private:
    void
    Fulfill(ScoreReply reply) override
    {
        promise_.set_value(FleetReply{std::move(reply), cls_, arrival_});
    }

    std::promise<FleetReply> promise_;
    SloClass cls_;
    SimTime arrival_;
};

FleetService::FleetService(const HardwareProfile& profile, FleetConfig config)
    : FleetService(profile, std::move(config),
                   serve::CoalescerConfig{SimTime()},  // dispatch alone
                   WorkloadPolicy::kQueueAware, /*resident_models=*/false)
{
}

FleetService::FleetService(const HardwareProfile& profile, FleetConfig config,
                           const serve::CoalescerConfig& coalescer,
                           WorkloadPolicy policy, bool resident_models)
    : config_(std::move(config)),
      coalescer_(coalescer),
      policy_(policy),
      resident_models_(resident_models),
      depth_cap_(static_cast<std::size_t>(
                     kScaleUpQueuePerLane *
                     static_cast<double>(std::max(
                         config_.autoscaler.max_lanes,
                         InitialLanes(config_)))) +
                 1),
      trace_domain_(TraceCollector::Get().NewDomain()),
      registry_(profile, config_.registry),
      wfq_(Weights(config_.slo)),
      lanes_(InitialLanes(config_), config_),
      // As many as ThreadPool(0) starts. Not ThreadPool::Shared():
      // CompiledModel::Predict runs ParallelFor on that pool, which
      // deadlocks when its callers are the pool's own workers.
      scorers_(std::max<std::size_t>(1, std::thread::hardware_concurrency()))
{
    if (config_.queue_capacity == 0) {
        throw InvalidArgument("fleet: zero queue capacity");
    }
    serve::BatchCoalescer validate(coalescer_);
    dispatch_held_ = config_.hold_dispatch;
    const std::size_t lanes = InitialLanes(config_);
    for (int d = 0; d < 3; ++d) {
        devices_[d].lanes = lanes;
        stats_.SetLanes(static_cast<DeviceClass>(d), lanes, 0);
    }
}

FleetService::~FleetService()
{
    Stop();
}

void
FleetService::RegisterModel(const std::string& id, const TreeEnsemble& model,
                            const ModelStats& stats)
{
    registry_.RegisterModel(id, model, stats, resident_models_);
    std::lock_guard<std::mutex> lock(admission_mutex_);
    model_index_.emplace(id, static_cast<std::uint32_t>(model_ids_.size()));
    model_ids_.push_back(id);
    model_cols_.push_back(stats.num_features);
}

void
FleetService::RegisterTenant(std::uint64_t tenant_id,
                             const std::string& model_id, SloClass cls)
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    auto model_it = model_index_.find(model_id);
    if (model_it == model_index_.end()) {
        throw NotFound("fleet: unknown model: " + model_id);
    }
    if (tenants_.count(tenant_id) != 0) {
        throw InvalidArgument("fleet: duplicate tenant id");
    }
    const SloPolicy& policy = config_.slo[static_cast<int>(cls)];
    TenantState state;
    state.model_idx = model_it->second;
    state.cls = cls;
    state.bucket = TokenBucket(policy.quota_rps, policy.quota_burst);
    tenants_.emplace(tenant_id, std::move(state));
}

void
FleetService::SetSloPolicy(SloClass cls, const SloPolicy& policy)
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_) {
        throw InvalidArgument("fleet: SetSloPolicy while running");
    }
    if (policy.weight <= 0.0) {
        throw InvalidArgument("fleet: SLO weight must be positive");
    }
    config_.slo[static_cast<int>(cls)] = policy;
    // Fleet admission needs a running service, so nothing is queued.
    DBS_ASSERT(wfq_.empty());
    wfq_ = WeightedFairQueue<Pending>(Weights(config_.slo));
}

void
FleetService::Start()
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_) {
        return;
    }
    if (stop_requested_ || threads_ != nullptr) {
        throw InvalidArgument("fleet: cannot restart a stopped service");
    }
    running_ = true;
    threads_ = std::make_unique<ThreadPool>(scorers_ + 1);
    threads_->Submit([this] { DispatcherLoop(); });
    for (std::size_t i = 0; i < scorers_; ++i) {
        threads_->Submit([this] { ScorerLoop(); });
    }
}

void
FleetService::Stop()
{
    std::vector<Pending> orphaned;
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        if (stop_requested_) {
            return;  // idempotent
        }
        stop_requested_ = true;
        // A held gate must not outlive Stop: the scheduler drains the
        // central queue on its way out.
        dispatch_held_ = false;
        if (threads_ == nullptr) {
            // Never started: nobody will ever serve the queue.
            while (!wfq_.empty()) {
                orphaned.push_back(*wfq_.Pop());
            }
        }
    }
    dispatcher_cv_.notify_all();
    threads_.reset();  // joins the dispatcher and the scorers
    for (Pending& p : orphaned) {
        Settle(p, ScoreReply{}, RequestStatus::kRejected, Arrival(p),
               "service stopped before Start");
    }
    std::lock_guard<std::mutex> lock(admission_mutex_);
    running_ = false;
}

void
FleetService::Drain()
{
    std::size_t target;
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        target = submitted_;
    }
    std::unique_lock<std::mutex> lock(settle_mutex_);
    settle_cv_.wait(lock, [&] { return settled_ >= target; });
}

bool
FleetService::running() const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return running_;
}

void
FleetService::ReleaseDispatch()
{
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        dispatch_held_ = false;
    }
    dispatcher_cv_.notify_all();
}

void
FleetService::Admit(std::unique_lock<std::mutex>& lock, Pending pending,
                    double submit_wall_us)
{
    TraceCollector& tracer = TraceCollector::Get();
    const SpanContext root = tracer.NewRootContext(trace_domain_);
    const auto rows = static_cast<double>(pending.request.num_rows);
    const auto cls = static_cast<SloClass>(pending.slo_class);
    pending.trace = root;
    pending.submit_wall_us = submit_wall_us;
    stats_.Count(cls, &ClassSnapshot::admitted);
    ++submitted_;
    wfq_.Push(cls, std::move(pending));
    lock.unlock();
    // Wall span for the admission handoff, on the client's thread.
    tracer.EmitWall(StageKind::kAdmission, "admit", root, submit_wall_us,
                    tracer.NowWallMicros() - submit_wall_us, {{"rows", rows}});
    dispatcher_cv_.notify_one();
}

std::future<FleetReply>
FleetService::Submit(FleetRequest request)
{
    const double submit_us = TraceCollector::Get().NowWallMicros();
    std::unique_lock<std::mutex> lock(admission_mutex_);
    const SimTime arrival = request.arrival.value_or(modeled_clock_);
    modeled_clock_ = Max(modeled_clock_, arrival);
    auto tenant_it = tenants_.find(request.tenant_id);
    TenantState* tenant =
        tenant_it == tenants_.end() ? nullptr : &tenant_it->second;
    const SloClass cls = tenant ? tenant->cls : SloClass::kBronze;
    auto ticket =
        std::make_shared<Ticket>(cls, arrival, std::move(request.rows));
    std::future<FleetReply> future = ticket->future();
    const std::vector<float>& payload = ticket->payload;
    // Answers the request at once: rejected, or failed once admitted.
    const auto refuse = [&](RequestStatus status, std::string why) {
        lock.unlock();
        ScoreReply reply;
        reply.status = status;
        reply.finish = arrival;
        reply.error = std::move(why);
        static_cast<serve::ReplySink&>(*ticket).Fulfill(std::move(reply));
        return std::move(future);
    };
    if (tenant == nullptr) {
        return refuse(RequestStatus::kRejected, "fleet: unknown tenant");
    }
    stats_.Count(cls, &ClassSnapshot::submitted);
    if (!running_ || stop_requested_) {
        stats_.Count(cls, &ClassSnapshot::rejected_capacity);
        return refuse(RequestStatus::kRejected, "fleet: service not running");
    }
    if (!tenant->bucket.TryTake(arrival)) {
        stats_.Count(cls, &ClassSnapshot::rejected_quota);
        return refuse(RequestStatus::kRejected,
                      "fleet: tenant quota exceeded");
    }
    if (wfq_.size() >= config_.queue_capacity) {
        stats_.Count(cls, &ClassSnapshot::rejected_capacity);
        return refuse(RequestStatus::kRejected, "fleet: central queue full");
    }
    const std::size_t cols = model_cols_[tenant->model_idx];
    if (!payload.empty() && payload.size() != request.num_rows * cols) {
        // The scorer would read past (or ignore part of) the payload.
        stats_.Count(cls, &ClassSnapshot::admitted);
        stats_.RecordAnswer(cls, RequestStatus::kFailed, arrival, arrival);
        return refuse(RequestStatus::kFailed,
                      "fleet: payload is not num_rows x the model's columns");
    }

    Pending pending;
    pending.request.model_id = model_ids_[tenant->model_idx];
    pending.request.num_rows = request.num_rows;
    pending.request.arrival = arrival;
    pending.request.deadline = config_.slo[static_cast<int>(cls)].deadline;
    if (!payload.empty()) {
        pending.request.rows =
            RowView(std::shared_ptr<const float[]>(ticket, payload.data()),
                    payload.data(), request.num_rows, cols, cols);
    }
    pending.handle = std::move(ticket);
    pending.slo_class = static_cast<int>(cls);
    Admit(lock, std::move(pending), submit_us);
    return future;
}

FleetReply
FleetService::ScoreSync(FleetRequest request)
{
    return Submit(std::move(request)).get();
}

serve::PendingScorePtr
FleetService::SubmitScore(serve::ScoreRequest request)
{
    constexpr SloClass kTenantClass = SloClass::kGold;
    const double submit_us = TraceCollector::Get().NowWallMicros();
    auto handle = std::make_shared<serve::PendingScore>();
    stats_.Count(kTenantClass, &ClassSnapshot::submitted);
    std::unique_lock<std::mutex> lock(admission_mutex_);
    auto model_it = model_index_.find(request.model_id);
    std::string reject;
    if (stop_requested_) {
        reject = "service is stopped";
    } else if (model_it == model_index_.end()) {
        reject = "unknown model: " + request.model_id;
    } else if (request.num_rows == 0) {
        reject = "zero rows";
    } else if (!request.rows.empty() &&
               (request.rows.rows() != request.num_rows ||
                request.rows.cols() != model_cols_[model_it->second])) {
        reject = "row payload arity mismatch";
    } else if (wfq_.size() >= config_.queue_capacity) {
        reject = "admission queue full";
    }
    if (!reject.empty()) {
        lock.unlock();
        stats_.Count(kTenantClass, &ClassSnapshot::rejected_capacity);
        ScoreReply reply;
        reply.error = std::move(reject);
        handle->Fulfill(std::move(reply));
        return handle;
    }
    {
        std::lock_guard<std::mutex> settle(settle_mutex_);
        request.arrival = request.arrival.value_or(
            Max(modeled_clock_, latest_finish_));
    }
    modeled_clock_ = Max(modeled_clock_, *request.arrival);
    Pending pending;
    pending.request = std::move(request);
    pending.handle = handle;
    pending.slo_class = static_cast<int>(kTenantClass);
    Admit(lock, std::move(pending), submit_us);
    return handle;
}

FleetSnapshot
FleetService::Stats() const
{
    FleetSnapshot snap = stats_.Snapshot(lanes_);
    snap.registry = registry_.Snapshot();
    std::lock_guard<std::mutex> lock(admission_mutex_);
    snap.tenants = tenants_.size();
    snap.models = model_ids_.size();
    return snap;
}

void
FleetService::ResetStats()
{
    stats_.Reset();
    lanes_.ResetCounters();
}

void
FleetService::EvictAllModels()
{
    registry_.EvictAll();
}

void
FleetService::DispatcherLoop()
{
    serve::BatchCoalescer coalescer(coalescer_);
    std::unique_lock<std::mutex> lock(admission_mutex_);
    const auto ready = [&] {
        return !dispatch_held_ && (stop_requested_ || !wfq_.empty());
    };
    for (;;) {
        if (coalescer.open_batches() == 0) {
            dispatcher_cv_.wait(lock, ready);
        } else if (!dispatcher_cv_.wait_for(lock, kFlushInterval, ready)) {
            // Idle past the flush interval: strand no open batch.
            lock.unlock();
            for (Batch& batch : coalescer.Flush()) {
                Dispatch(std::move(batch), 0);
            }
            lock.lock();
            continue;
        }
        if (wfq_.empty()) {
            break;  // stop requested and the central queue drained
        }
        Pending pending = *wfq_.Pop();
        // Captured under the lock for the autoscaler: the central
        // backlog is where overload piles up.
        const std::size_t central_backlog = wfq_.size();
        lock.unlock();
        // Dispatch outside the admission lock so submissions keep
        // flowing during a registry build.
        for (Batch& batch : coalescer.Add(std::move(pending))) {
            Dispatch(std::move(batch), central_backlog);
        }
        lock.lock();
    }
    lock.unlock();
    for (Batch& batch : coalescer.Flush()) {
        Dispatch(std::move(batch), 0);
    }

    // Dispatch is over: release the scorers (they drain the queue
    // before exiting).
    {
        std::lock_guard<std::mutex> wlock(work_mutex_);
        work_stop_ = true;
    }
    work_cv_.notify_all();
}

void
FleetService::Dispatch(Batch batch, std::size_t central_backlog)
{
    TraceCollector& tracer = TraceCollector::Get();
    std::vector<Pending>& members = batch.members;
    DBS_ASSERT(!members.empty());  // the coalescer's invariant
    const SpanContext lead = members.front().trace;

    AcquireResult acquired;
    try {
        acquired = registry_.Acquire(batch.model_id, lead, batch.ready);
    } catch (const std::exception& e) {
        // A model that cannot be built fails its requests; the
        // service keeps serving every other model.
        for (Pending& m : members) {
            Settle(m, ScoreReply{}, RequestStatus::kFailed, Arrival(m),
                   e.what());
        }
        tracer.Drain();
        return;
    }
    const WarmModel& model = *acquired.model;
    // What every member's reply shares from here on.
    ScoreReply base;
    base.registry_miss = !acquired.hit;
    const serve::LaneModel lane_model{model.scheduler.get(), model.model_bytes,
                                      model.num_cols};
    const SimTime ready = batch.ready + acquired.build_cost;

    serve::LaneRun run;
    run.rows = batch.total_rows;
    Place(*model.scheduler, ready, lead, run);
    Device& placed = devices_[static_cast<int>(run.device)];

    // Reserve the lane and invoke the runtime, then expire the members
    // whose modeled start overruns their deadline (the lane stays
    // uncharged when none is left) and run the whole attempt loop —
    // faults, backoff, retries, CPU degrade — right here, before the
    // next dispatch. Every modeled step (lane horizons, breakers,
    // runtime warm/cold state, the fault streams) thus evolves in
    // dispatch order alone.
    lanes_.Reserve(run, ready);
    const SimTime start = run.now;
    const std::size_t admitted = members.size();
    run.rows = Drop(members, start, base, RequestStatus::kExpired, start,
                    "deadline expired before dispatch");
    // An expiry is the strongest overload signal there is: it counts as
    // a missed-deadline sample in the autoscaler's window alongside
    // late completions.
    placed.window_completions += admitted - members.size();
    placed.window_deadline_misses += admitted - members.size();
    if (!members.empty()) {
        SpanContext parent = members.front().trace;
        const auto drop = [&](SimTime redispatch, const serve::LaneRun& r) {
            ScoreReply reply = base;
            reply.attempts = r.attempts;
            reply.degraded = r.degraded;
            const std::size_t rows =
                Drop(members, redispatch, std::move(reply),
                     RequestStatus::kFailed, r.now, "deadline precludes retry");
            if (!members.empty()) {
                parent = members.front().trace;
            }
            return rows;
        };
        lanes_.Run(lane_model, run, parent, drop);
        if (run.completed) {
            Complete(placed, std::move(members), std::move(acquired.model),
                     run, base, batch.ready, ready, start);
        } else {
            Commit(placed, run.now);
            for (Pending& m : members) {
                ScoreReply reply = base;
                reply.attempts = run.attempts;
                reply.degraded = run.degraded;
                Settle(m, std::move(reply), RequestStatus::kFailed, run.now,
                       "injected faults exhausted every retry");
            }
        }
    }

    MaybeAutoscale(ready, central_backlog);
    // Keep the per-thread rings far from overflow: a dispatch emits at
    // most a dozen spans per member.
    tracer.Drain();
}

void
FleetService::Place(const OffloadScheduler& scheduler, SimTime ready,
                    const SpanContext& parent, serve::LaneRun& run)
{
    std::optional<BackendEstimate> est[3];
    for (int d = 0; d < 3; ++d) {
        est[d] = BestOfClass(scheduler, static_cast<DeviceClass>(d), run.rows);
    }
    DBS_ASSERT(est[0].has_value());  // the CPU can always host the model
    int chosen = 0;
    if (policy_ == WorkloadPolicy::kQueueAware) {
        // Earliest finish across devices, skipping accelerators whose
        // breaker turns the dispatch away (open, cooldown pending). The
        // CPU is always admitted.
        SimTime best;
        for (int d = 0; d < 3; ++d) {
            const auto lane =
                est[d] ? lanes_.Admit(static_cast<DeviceClass>(d), ready,
                                      parent)
                       : std::nullopt;
            const SimTime finish =
                lane ? Max(ready, lane->at) + est[d]->Total() : SimTime();
            if (lane && (d == 0 || finish < best)) {
                chosen = d;
                best = finish;
            }
        }
    } else {
        if (policy_ == WorkloadPolicy::kAlwaysFpga) {
            chosen = 2;
        } else if (policy_ == WorkloadPolicy::kServiceOptimal) {
            for (int d = 1; d < 3; ++d) {
                if (est[d] && est[d]->Total() < est[chosen]->Total()) {
                    chosen = d;
                }
            }
        }
        chosen = est[chosen] ? chosen : 0;
        // A fixed placement's open accelerator turns the dispatch away
        // to the CPU engine (flagged degraded) until the cooldown
        // elapses; the first dispatch ready at/after it goes through
        // as the half-open probe.
        const auto device = static_cast<DeviceClass>(chosen);
        if (chosen != 0 && config_.cpu_fallback &&
            !lanes_.Admit(device, ready, parent)) {
            lanes_.Reroute(device, ready, parent);
            run.degraded = true;
            chosen = 0;
        }
    }
    run.device = static_cast<DeviceClass>(chosen);
    run.kind = est[chosen]->kind;
}

void
FleetService::Complete(Device& placed, std::vector<Pending> live,
                       WarmModelPtr model, const serve::LaneRun& run,
                       const ScoreReply& base, SimTime batch_ready,
                       SimTime ready, SimTime start)
{
    TraceCollector& tracer = TraceCollector::Get();
    const serve::AttemptCost& cost = run.cost;
    const SimTime service = cost.Total();
    const SimTime finish = run.now + service;
    Commit(placed, finish);
    stats_.RecordDispatch(run.device, live.size(), run.rows, service,
                          cost.invocation.cold);

    const double n = static_cast<double>(live.size());
    std::vector<ScoreReply> replies;
    replies.reserve(live.size());
    for (Pending& m : live) {
        const SimTime arrival = Arrival(m);
        const double share = static_cast<double>(m.request.num_rows) /
                             static_cast<double>(run.rows);
        ScoreReply reply = base;
        reply.status = RequestStatus::kCompleted;
        reply.device = run.device;
        reply.backend = run.kind;
        reply.finish = finish;
        reply.batch_requests = live.size();
        reply.batch_rows = run.rows;
        reply.cold_invocation = cost.invocation.cold;
        reply.attempts = run.attempts;
        reply.degraded = run.degraded;
        reply.deadline_miss = PastDeadline(m, finish);
        serve::RequestTiming& t = reply.timing;
        t.coalesce_delay = batch_ready - arrival;
        t.queue_wait = start - ready;
        t.invocation_share = cost.invocation.cost / n;
        t.model_preproc_share = cost.model_pre / n;
        t.transfer_share = cost.Transfer() * share;
        t.data_preproc_share = cost.data_pre * share;
        t.scoring_share = ScaleBreakdown(cost.scoring, share);
        t.latency = finish - arrival;

        // Autoscaler window sample on the *placement* device (the one
        // whose pool this dispatch was sized for).
        ++placed.window_completions;
        if (reply.deadline_miss) {
            ++placed.window_deadline_misses;
        }
        stats_.RecordAnswer(static_cast<SloClass>(m.slo_class),
                            RequestStatus::kCompleted, arrival, finish,
                            run.degraded, reply.deadline_miss);

        // Simulated stage chain, one span per paper component: waiting
        // spans at their true timeline positions, then the request's
        // share of the dispatch cost laid end to end from the
        // successful attempt (faults and backoffs already own
        // start..run.now).
        if (!coalescer_.window.is_zero()) {
            tracer.EmitSim(StageKind::kCoalesce, "coalesce-delay", m.trace,
                           arrival, t.coalesce_delay);
        }
        tracer.EmitSim(StageKind::kQueueWait, "queue-wait", m.trace, ready,
                       t.queue_wait);
        SimTime cursor = run.now;
        const struct {
            StageKind stage;
            const char* name;
            SimTime dur;
        } shares[] = {
            {StageKind::kInvocation, "invocation-share", t.invocation_share},
            {StageKind::kModelPreproc, "model-preproc-share",
             t.model_preproc_share},
            {StageKind::kMarshal, "transfer-share", t.transfer_share},
            {StageKind::kDataPreproc, "data-preproc-share",
             t.data_preproc_share},
            {StageKind::kScoring, "scoring-share", t.scoring_share.Total()},
        };
        for (const auto& s : shares) {
            tracer.EmitSim(s.stage, s.name, m.trace, cursor, s.dur);
            cursor += s.dur;
        }
        replies.push_back(std::move(reply));
    }
    HandOff(DeviceWork{std::move(live), std::move(replies), std::move(model),
                       run.device});
}

std::size_t
FleetService::Drop(std::vector<Pending>& members, SimTime at,
                   const ScoreReply& reply, RequestStatus status,
                   SimTime answer_at, const char* why)
{
    std::size_t rows = 0;
    std::size_t kept = 0;
    for (Pending& m : members) {
        if (PastDeadline(m, at)) {
            Settle(m, reply, status, answer_at, why);
            continue;
        }
        rows += m.request.num_rows;
        if (&members[kept] != &m) {
            members[kept] = std::move(m);
        }
        ++kept;
    }
    members.resize(kept);
    return rows;
}

void
FleetService::Settle(Pending& pending, ScoreReply reply,
                     RequestStatus status, SimTime at, std::string why)
{
    const SimTime arrival = Arrival(pending);
    const auto cls = static_cast<SloClass>(pending.slo_class);
    reply.status = status;
    reply.finish = at;
    reply.timing.latency = at - arrival;
    reply.error = std::move(why);
    stats_.RecordAnswer(cls, status, arrival, at);
    Answer(pending, std::move(reply));
}

void
FleetService::Commit(Device& device, SimTime finish)
{
    device.running.insert(finish);
    if (device.running.size() > depth_cap_) {
        device.running.erase(device.running.begin());
    }
}

void
FleetService::HandOff(DeviceWork work)
{
    {
        std::unique_lock<std::mutex> wlock(work_mutex_);
        const std::size_t window = scorers_ * kWindowPerScorer;
        room_cv_.wait(wlock, [&] {
            return work_.size() + work_inflight_ < window;
        });
        work_.push_back(std::move(work));
    }
    work_cv_.notify_one();
}

void
FleetService::MaybeAutoscale(SimTime now, std::size_t central_backlog)
{
    TraceCollector& tracer = TraceCollector::Get();
    for (int d = 0; d < 3; ++d) {
        Device& device = devices_[d];
        DeviceLoadSignals signals;
        signals.lanes = device.lanes;
        // The committed dispatches still running at `now` on the
        // modeled clock, plus this device's share of the central WFQ
        // backlog, where overload actually piles up.
        const auto running = static_cast<std::size_t>(std::distance(
            device.running.upper_bound(now), device.running.end()));
        signals.queue_depth = running + central_backlog / 3;
        signals.window_completions = device.window_completions;
        signals.window_deadline_misses = device.window_deadline_misses;
        signals.now = now;
        signals.last_change = device.last_scale_change;
        const AutoscaleDecision decision =
            Autoscale(config_.autoscaler, signals);
        const int delta = decision.delta;
        if (delta == 0) {
            continue;
        }
        device.lanes = delta > 0
                           ? device.lanes + static_cast<std::size_t>(delta)
                           : device.lanes - static_cast<std::size_t>(-delta);
        device.last_scale_change = now;
        device.window_completions = 0;
        device.window_deadline_misses = 0;
        const auto device_class = static_cast<DeviceClass>(d);
        lanes_.ResizeLanes(device_class, device.lanes);
        stats_.SetLanes(device_class, device.lanes, delta);
        tracer.EmitSim(StageKind::kAutoscale, decision.reason,
                       tracer.NewRootContext(trace_domain_), now, SimTime(),
                       {{"device", static_cast<double>(d)},
                        {"lanes", static_cast<double>(device.lanes)},
                        {"delta", static_cast<double>(delta)}});
    }
}

void
FleetService::ScorerLoop()
{
    for (;;) {
        DeviceWork work;
        {
            std::unique_lock<std::mutex> wlock(work_mutex_);
            work_cv_.wait(wlock,
                          [&] { return work_stop_ || !work_.empty(); });
            if (work_.empty()) {
                break;  // stop requested and fully drained
            }
            work = std::move(work_.front());
            work_.pop_front();
            ++work_inflight_;
        }
        {
            // Wall span for the dispatch on this scorer; kernel spans
            // emitted while computing predictions nest under it.
            ScopedSpan exec(StageKind::kBatch, "batch-execute",
                            work.members.front().trace);
            exec.AddAttr("requests", static_cast<double>(work.members.size()));
            exec.AddAttr("rows",
                         static_cast<double>(work.replies.front().batch_rows));
            exec.AddAttr("device", static_cast<double>(work.device));
            for (std::size_t i = 0; i < work.members.size(); ++i) {
                const RowView& rows = work.members[i].request.rows;
                if (!rows.empty()) {
                    // Functional scoring through the registry's shared
                    // CompiledModel, traversing the request's view in
                    // place: the same compiled plan serves warm,
                    // re-warmed and degraded dispatches, so predictions
                    // are bit-identical in every case. Wall-clock only;
                    // the modeled reply is already fixed.
                    work.replies[i].predictions =
                        work.model->compiled->Predict(rows);
                }
                Answer(work.members[i], std::move(work.replies[i]));
            }
        }
        {
            std::lock_guard<std::mutex> wlock(work_mutex_);
            --work_inflight_;
        }
        room_cv_.notify_one();
    }
}

void
FleetService::Answer(Pending& pending, ScoreReply reply)
{
    TraceCollector& tracer = TraceCollector::Get();
    const SimTime arrival = Arrival(pending);
    const SimTime finish = reply.finish;
    // The request's root span: wall submit -> now, modeled
    // arrival -> finish. Every stage span parents to it.
    trace::SpanRecord record;
    record.trace_id = pending.trace.trace_id;
    record.span_id = pending.trace.span_id;
    record.domain = pending.trace.domain;
    record.stage = StageKind::kQuery;
    record.name = "request";
    record.wall_start_us = pending.submit_wall_us;
    record.wall_dur_us = tracer.NowWallMicros() - pending.submit_wall_us;
    record.sim_start_s = arrival.seconds();
    record.sim_dur_s = (finish - arrival).seconds();
    record.AddAttr("rows", static_cast<double>(pending.request.num_rows));
    record.AddAttr("class", static_cast<double>(pending.slo_class));
    record.AddAttr("status", static_cast<double>(reply.status));
    tracer.Emit(record);
    {
        // Published before the caller wakes, so a synchronous caller's
        // next unstamped request is stamped at or after this finish.
        std::lock_guard<std::mutex> lock(settle_mutex_);
        latest_finish_ = Max(latest_finish_, finish);
    }
    {
        ScopedSpan fulfill(StageKind::kReply, "fulfill", pending.trace);
        pending.handle->Fulfill(std::move(reply));
    }
    {
        std::lock_guard<std::mutex> lock(settle_mutex_);
        ++settled_;
    }
    settle_cv_.notify_all();
}

}  // namespace dbscore::fleet

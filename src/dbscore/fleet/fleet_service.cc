#include "dbscore/fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/engines/scoring_engine.h"

namespace dbscore::fleet {

using serve::RequestStatus;
using trace::ScopedSpan;
using trace::SpanContext;
using trace::StageKind;
using trace::TraceCollector;

namespace {

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
    return std::max(config.autoscaler.enabled ? config.autoscaler.min_lanes
                                              : config.initial_lanes,
                    config.initial_lanes);
}

serve::LaneModel
LaneModelOf(const WarmModel& model)
{
    return {model.scheduler.get(), model.model_bytes, model.num_cols};
}

}  // namespace

FleetService::FleetService(const HardwareProfile& profile, FleetConfig config)
    : profile_(profile),
      config_(std::move(config)),
      trace_domain_(TraceCollector::Get().NewDomain()),
      registry_(profile, config_.registry),
      lanes_(InitialLanes(config_), config_.runtime_params, config_.retry,
             config_.breaker, config_.cpu_fallback)
{
    if (config_.queue_capacity == 0) {
        throw InvalidArgument("fleet: zero queue capacity");
    }
    if (config_.window_per_lane < 1.0) {
        throw InvalidArgument("fleet: window_per_lane must be >= 1");
    }
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
    registry_.RegisterModel(id, model, stats);
    std::lock_guard<std::mutex> lock(admission_mutex_);
    model_index_.emplace(id, static_cast<std::uint32_t>(model_ids_.size()));
    model_ids_.push_back(id);
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

std::size_t
FleetService::NumTenants() const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return tenants_.size();
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
    wfq_ = std::make_unique<WeightedFairQueue<PendingPtr>>(
        std::array<double, kNumSloClasses>{
            config_.slo[0].weight, config_.slo[1].weight,
            config_.slo[2].weight});
    running_ = true;
    threads_ = std::make_unique<ThreadPool>(4);
    threads_->Submit([this] { SchedulerLoop(); });
    for (int d = 0; d < 3; ++d) {
        threads_->Submit([this, d] { WorkerLoop(d); });
    }
}

void
FleetService::Stop()
{
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        if (!running_ && threads_ == nullptr) {
            return;
        }
        stop_requested_ = true;
        // A held gate must not outlive Stop: the scheduler drains the
        // central queue on its way out.
        dispatch_held_ = false;
    }
    scheduler_cv_.notify_all();
    threads_.reset();  // joins scheduler + workers
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
    scheduler_cv_.notify_all();
}

std::future<FleetReply>
FleetService::Submit(FleetRequest request)
{
    TraceCollector& tracer = TraceCollector::Get();
    std::promise<FleetReply> promise;
    std::future<FleetReply> future = promise.get_future();

    std::unique_lock<std::mutex> lock(admission_mutex_);
    const SimTime arrival = request.arrival.value_or(modeled_clock_);
    modeled_clock_ = Max(modeled_clock_, arrival);

    auto reject = [&](SloClass cls, std::string why) {
        FleetReply reply;
        reply.status = RequestStatus::kRejected;
        reply.slo = cls;
        reply.arrival = arrival;
        reply.finish = arrival;
        reply.error = std::move(why);
        lock.unlock();
        promise.set_value(std::move(reply));
    };

    auto tenant_it = tenants_.find(request.tenant_id);
    if (tenant_it == tenants_.end()) {
        reject(SloClass::kBronze, "fleet: unknown tenant");
        return future;
    }
    TenantState& tenant = tenant_it->second;
    const SloClass cls = tenant.cls;
    stats_.RecordSubmitted(cls);

    if (!running_ || stop_requested_) {
        stats_.RecordRejectedCapacity(cls);
        reject(cls, "fleet: service not running");
        return future;
    }
    if (!tenant.bucket.TryTake(arrival)) {
        stats_.RecordRejectedQuota(cls);
        reject(cls, "fleet: tenant quota exceeded");
        return future;
    }
    if (wfq_->size() >= config_.queue_capacity) {
        stats_.RecordRejectedCapacity(cls);
        reject(cls, "fleet: central queue full");
        return future;
    }

    auto pending = std::make_unique<Pending>();
    pending->request = std::move(request);
    pending->cls = cls;
    pending->model_idx = tenant.model_idx;
    pending->arrival = arrival;
    pending->trace = tracer.NewRootContext(trace_domain_);
    pending->promise = std::move(promise);
    tracer.EmitSim(StageKind::kAdmission, "fleet-admit", pending->trace,
                   arrival, SimTime(),
                   {{"class", static_cast<double>(cls)}});

    stats_.RecordAdmitted(cls);
    ++submitted_;
    wfq_->Push(cls, std::move(pending));
    lock.unlock();
    scheduler_cv_.notify_one();
    return future;
}

FleetReply
FleetService::ScoreSync(FleetRequest request)
{
    return Submit(std::move(request)).get();
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

bool
FleetService::HasRoom(Device& device) const
{
    std::lock_guard<std::mutex> lock(device.mutex);
    const auto window = static_cast<std::size_t>(
        static_cast<double>(device.lanes) * config_.window_per_lane);
    return device.queue.size() + device.inflight < window;
}

void
FleetService::SchedulerLoop()
{
    std::unique_lock<std::mutex> lock(admission_mutex_);
    for (;;) {
        scheduler_cv_.wait(lock, [&] {
            return (stop_requested_ && !dispatch_held_) ||
                   (!wfq_->empty() && !dispatch_held_);
        });
        if (wfq_->empty()) {
            if (stop_requested_) {
                break;
            }
            continue;
        }

        // Find devices with dispatch-window room. Lock order is
        // admission -> device everywhere, so these brief device peeks
        // are safe under the admission lock.
        std::array<bool, 3> has_room{};
        bool any_room = false;
        for (int d = 0; d < 3; ++d) {
            has_room[d] = HasRoom(devices_[d]);
            any_room = any_room || has_room[d];
        }
        if (!any_room) {
            // Workers notify scheduler_cv_ as they free window slots;
            // the timeout is a lost-wakeup backstop (wall-clock
            // liveness only — modeled time never sees it).
            scheduler_cv_.wait_for(lock, std::chrono::milliseconds(1));
            continue;
        }

        PendingPtr pending = *wfq_->Pop();
        const std::string model_id = model_ids_[pending->model_idx];
        // Captured under the lock for the autoscaler: the dispatch
        // window keeps device queues shallow by design, so the central
        // backlog is where overload is actually visible.
        const std::size_t central_backlog = wfq_->size();
        lock.unlock();

        // Warm (or build) the model outside the admission lock so
        // submissions keep flowing during a rebuild.
        AcquireResult acquired =
            registry_.Acquire(model_id, pending->trace, pending->arrival);
        const SimTime ready = pending->arrival + acquired.build_cost;
        const std::size_t rows = pending->request.num_rows;

        // Earliest-finish placement across devices with room, skipping
        // accelerators whose breaker turns the dispatch away (open,
        // cooldown pending). CPU is the fallback of last resort even
        // when its window is full.
        int chosen = -1;
        BackendKind chosen_kind = BackendKind::kCpuSklearn;
        SimTime chosen_finish;
        for (int d = 0; d < 3; ++d) {
            const auto device_class = static_cast<DeviceClass>(d);
            auto est = BestOfClass(*acquired.model->scheduler, device_class,
                                   rows);
            if (!est.has_value()) {
                continue;
            }
            // Room only grows while this thread is away: workers pop
            // and finish, and only the scheduler enqueues or resizes.
            if (!has_room[d] && !HasRoom(devices_[d])) {
                continue;
            }
            const auto lane =
                lanes_.Admit(device_class, ready, pending->trace);
            if (!lane.has_value()) {
                continue;
            }
            const SimTime finish = Max(ready, lane->at) + est->Total();
            if (chosen < 0 || finish < chosen_finish) {
                chosen = d;
                chosen_kind = est->kind;
                chosen_finish = finish;
            }
        }
        if (chosen < 0) {
            // Breakers closed every roomy accelerator and CPU is full:
            // queue on CPU anyway (bounded by the WFQ capacity).
            auto cpu = BestOfClass(*acquired.model->scheduler,
                                   DeviceClass::kCpu, rows);
            DBS_ASSERT(cpu.has_value());
            chosen = 0;
            chosen_kind = cpu->kind;
        }

        DeviceWork work;
        work.pending = std::move(pending);
        work.model = acquired.model;
        work.ready = ready;
        work.registry_miss = !acquired.hit;

        // Model the first attempt's full cost here, at dispatch, and
        // reserve the lane up to its projected finish. Charging the
        // horizon before the worker runs keeps modeled placement (and
        // thus latencies) a function of the dispatch sequence alone —
        // not of how fast real worker threads happen to drain queues.
        // The scheduler is the only thread invoking a device's runtime
        // for first attempts, so pool warm/cold state also evolves in
        // dispatch order.
        serve::LaneRun& run = work.run;
        run.device = static_cast<DeviceClass>(chosen);
        run.kind = chosen_kind;
        run.rows = rows;
        const SloPolicy& policy =
            config_.slo[static_cast<int>(work.pending->cls)];
        const SimTime deadline_at = work.pending->arrival + policy.deadline;
        lanes_.Reserve(LaneModelOf(*acquired.model), run, ready, deadline_at);
        Device& dev = devices_[chosen];
        if (run.now > deadline_at) {
            // Deadline admission at dispatch: the modeled start
            // already overruns the class deadline, so the request
            // expires instead of scoring (Reserve left the lane
            // uncharged). An expiry is the strongest overload signal
            // there is: it counts as a missed-deadline sample in the
            // autoscaler's window alongside late completions.
            {
                std::lock_guard<std::mutex> dlock(dev.mutex);
                ++dev.window_completions;
                ++dev.window_deadline_misses;
            }
            Pending& p = *work.pending;
            FleetReply reply;
            reply.status = RequestStatus::kExpired;
            reply.slo = p.cls;
            reply.arrival = p.arrival;
            reply.finish = run.now;
            reply.registry_miss = work.registry_miss;
            reply.error = "fleet: deadline expired before dispatch";
            stats_.RecordExpired(p.cls, p.arrival, run.now);
            TraceCollector::Get().EmitSim(
                StageKind::kQuery, "fleet-request", p.trace, p.arrival,
                run.now - p.arrival,
                {{"class", static_cast<double>(p.cls)}, {"expired", 1.0}});
            {
                ScopedSpan fulfill(StageKind::kReply, "fulfill", p.trace);
                p.promise.set_value(std::move(reply));
            }
            SettleOne();
        } else {
            {
                std::lock_guard<std::mutex> dlock(dev.mutex);
                dev.queue.push_back(std::move(work));
            }
            dev.cv.notify_one();
        }

        MaybeAutoscale(ready, central_backlog);
        lock.lock();
    }

    // Dispatch is over: release the workers (they drain their queues
    // before exiting).
    lock.unlock();
    for (Device& d : devices_) {
        {
            std::lock_guard<std::mutex> dlock(d.mutex);
            d.stop = true;
        }
        d.cv.notify_all();
    }
}

void
FleetService::MaybeAutoscale(SimTime now, std::size_t central_backlog)
{
    TraceCollector& tracer = TraceCollector::Get();
    for (int d = 0; d < 3; ++d) {
        Device& device = devices_[d];
        const auto device_class = static_cast<DeviceClass>(d);
        int delta = 0;
        std::size_t lanes_after = 0;
        const char* reason = "hold";
        {
            std::lock_guard<std::mutex> dlock(device.mutex);
            DeviceLoadSignals signals;
            signals.lanes = device.lanes;
            // Device queues are bounded by the dispatch window, so the
            // per-device depth alone can never cross the scale-up
            // threshold; each device also carries its share of the
            // central WFQ backlog, where overload actually piles up.
            signals.queue_depth = device.queue.size() + device.inflight +
                                  central_backlog / 3;
            signals.window_completions = device.window_completions;
            signals.window_deadline_misses = device.window_deadline_misses;
            signals.now = now;
            signals.last_change = device.last_scale_change;
            const AutoscaleDecision decision =
                Autoscale(config_.autoscaler, signals);
            delta = decision.delta;
            reason = decision.reason;
            if (delta != 0) {
                device.lanes =
                    delta > 0 ? device.lanes + static_cast<std::size_t>(delta)
                              : device.lanes - static_cast<std::size_t>(-delta);
                device.last_scale_change = now;
                device.window_completions = 0;
                device.window_deadline_misses = 0;
            }
            lanes_after = device.lanes;
        }
        if (delta != 0) {
            lanes_.ResizeLanes(device_class, lanes_after);
            stats_.SetLanes(device_class, lanes_after, delta);
            tracer.EmitSim(StageKind::kAutoscale, reason,
                           tracer.NewRootContext(trace_domain_), now,
                           SimTime(),
                           {{"device", static_cast<double>(d)},
                            {"lanes", static_cast<double>(lanes_after)},
                            {"delta", static_cast<double>(delta)}});
        }
    }
}

void
FleetService::WorkerLoop(int device_index)
{
    Device& device = devices_[device_index];
    for (;;) {
        DeviceWork work;
        {
            std::unique_lock<std::mutex> dlock(device.mutex);
            device.cv.wait(dlock, [&] {
                return device.stop || !device.queue.empty();
            });
            if (device.queue.empty()) {
                break;  // stop requested and fully drained
            }
            work = std::move(device.queue.front());
            device.queue.pop_front();
            ++device.inflight;
        }
        // A window slot just freed; the scheduler may dispatch again.
        scheduler_cv_.notify_one();
        ExecuteOne(device, std::move(work));
        {
            std::lock_guard<std::mutex> dlock(device.mutex);
            --device.inflight;
        }
        scheduler_cv_.notify_one();
    }
}

void
FleetService::SettleOne()
{
    {
        std::lock_guard<std::mutex> lock(settle_mutex_);
        ++settled_;
    }
    settle_cv_.notify_all();
}

void
FleetService::ExecuteOne(Device& device, DeviceWork work)
{
    TraceCollector& tracer = TraceCollector::Get();
    Pending& pending = *work.pending;
    const WarmModel& model = *work.model;
    const SloPolicy& policy = config_.slo[static_cast<int>(pending.cls)];
    const SimTime arrival = pending.arrival;
    const SimTime deadline_at = arrival + policy.deadline;
    const std::size_t rows = pending.request.num_rows;

    auto finish_reply = [&](FleetReply reply) {
        {
            ScopedSpan fulfill(StageKind::kReply, "fulfill", pending.trace);
            pending.promise.set_value(std::move(reply));
        }
        SettleOne();
    };

    // The scheduler fixed the lane, start and first-attempt costs at
    // dispatch; retries and a CPU fallback are costed by the lanes
    // against the then-current device runtime.
    serve::LaneRun& run = work.run;
    const SimTime start = run.now;
    serve::LaneRiders rider(pending.trace, deadline_at);
    lanes_.Run(LaneModelOf(model), run, rider);

    FleetReply reply;
    reply.slo = pending.cls;
    reply.arrival = arrival;
    reply.registry_miss = work.registry_miss;
    reply.attempts = run.attempts;
    reply.degraded = run.degraded;

    if (!run.completed) {
        reply.status = RequestStatus::kFailed;
        reply.finish = run.now;
        reply.error = run.rows == 0
                          ? "fleet: deadline precludes retry"
                          : "fleet: injected faults exhausted every retry";
        stats_.RecordFailed(pending.cls, arrival, run.now);
        tracer.EmitSim(StageKind::kQuery, "fleet-request", pending.trace,
                       arrival, run.now - arrival,
                       {{"class", static_cast<double>(pending.cls)},
                        {"failed", 1.0}});
        finish_reply(std::move(reply));
        tracer.Drain();
        return;
    }

    const serve::AttemptCost& cost = run.cost;
    const SimTime service = cost.Total();
    const SimTime finish = run.now + service;
    stats_.RecordDispatch(run.device, 1, rows, service);

    const bool deadline_miss = finish > deadline_at;
    {
        // Autoscaler window sample on the *placement* device (the one
        // whose pool the scheduler sized this work for).
        std::lock_guard<std::mutex> dlock(device.mutex);
        ++device.window_completions;
        if (deadline_miss) {
            ++device.window_deadline_misses;
        }
    }

    // Simulated stage chain: queue wait at its true timeline position,
    // then the dispatch costs laid end to end from the successful
    // attempt (faults and backoffs already own start..run.now).
    tracer.EmitSim(StageKind::kQueueWait, "queue-wait", pending.trace,
                   work.ready, start - work.ready);
    SimTime cursor = run.now;
    const struct {
        StageKind stage;
        const char* name;
        SimTime dur;
    } stages[] = {
        {StageKind::kInvocation, "invocation", cost.invocation.cost},
        {StageKind::kModelPreproc, "model-preproc", cost.model_pre},
        {StageKind::kMarshal, "transfer", cost.Transfer()},
        {StageKind::kDataPreproc, "data-preproc", cost.data_pre},
        {StageKind::kScoring, "scoring", cost.scoring.Total()},
    };
    for (const auto& s : stages) {
        tracer.EmitSim(s.stage, s.name, pending.trace, cursor, s.dur);
        cursor += s.dur;
    }

    reply.status = RequestStatus::kCompleted;
    reply.device = run.device;
    reply.backend = run.kind;
    reply.deadline_miss = deadline_miss;
    reply.finish = finish;
    if (!pending.request.rows.empty()) {
        // Functional scoring through the registry's cached kernel: the
        // same compiled plan serves warm, re-warmed, and degraded
        // dispatches, so predictions are bit-identical in every case.
        reply.predictions = model.forest.PredictBatch(
            pending.request.rows.data(), rows, model.num_cols);
    }
    stats_.RecordCompleted(pending.cls, arrival, finish, run.degraded,
                           deadline_miss);
    tracer.EmitSim(StageKind::kQuery, "fleet-request", pending.trace,
                   arrival, finish - arrival,
                   {{"class", static_cast<double>(pending.cls)},
                    {"miss", deadline_miss ? 1.0 : 0.0}});
    finish_reply(std::move(reply));
    tracer.Drain();
}

}  // namespace dbscore::fleet

#include "dbscore/fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/fault/fault.h"

namespace dbscore::fleet {

using serve::BreakerState;
using serve::RequestStatus;
using trace::ScopedSpan;
using trace::SpanContext;
using trace::StageKind;
using trace::TraceCollector;

namespace {

/**
 * Modeled engine time a faulted offload attempt consumed — identical
 * to the serve layer's accounting (see scoring_service.cc): every
 * breakdown component completed before the site that failed.
 */
SimTime
FaultedOffloadCost(const OffloadBreakdown& b, DeviceClass device_class,
                   std::size_t site_index)
{
    SimTime t = b.preprocessing + b.input_transfer;
    if (site_index == 0) {
        return t;
    }
    t += b.setup;
    if (site_index == 1) {
        return t;
    }
    if (device_class == DeviceClass::kFpga) {
        t += b.compute + b.completion_signal;
        if (site_index == 2) {
            return t;
        }
    } else {
        t += b.compute + b.completion_signal;
    }
    return t + b.result_transfer;
}

}  // namespace

FleetService::FleetService(const HardwareProfile& profile, FleetConfig config)
    : profile_(profile),
      config_(std::move(config)),
      trace_domain_(TraceCollector::Get().NewDomain()),
      registry_(profile, config_.registry)
{
    if (config_.queue_capacity == 0) {
        throw InvalidArgument("fleet: zero queue capacity");
    }
    if (config_.initial_lanes == 0) {
        throw InvalidArgument("fleet: zero initial lanes");
    }
    if (config_.window_per_lane < 1.0) {
        throw InvalidArgument("fleet: window_per_lane must be >= 1");
    }
    dispatch_held_ = config_.hold_dispatch;
    const std::size_t lanes = std::max(
        config_.autoscaler.enabled ? config_.autoscaler.min_lanes
                                   : config_.initial_lanes,
        config_.initial_lanes);
    for (Device& d : devices_) {
        d.runtime =
            std::make_unique<ExternalScriptRuntime>(config_.runtime_params);
        d.lanes.assign(lanes, SimTime());
    }
    for (int d = 0; d < 3; ++d) {
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
    FleetSnapshot snap = stats_.Snapshot();
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
}

void
FleetService::EvictAllModels()
{
    registry_.EvictAll();
}

SimTime
FleetService::MinLaneLocked(const Device& device)
{
    SimTime best = device.lanes.front();
    for (const SimTime& t : device.lanes) {
        if (t < best) {
            best = t;
        }
    }
    return best;
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
            std::lock_guard<std::mutex> dlock(devices_[d].mutex);
            const std::size_t window = static_cast<std::size_t>(
                static_cast<double>(devices_[d].lanes.size()) *
                config_.window_per_lane);
            has_room[d] =
                devices_[d].queue.size() + devices_[d].inflight < window;
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
        // accelerators whose breaker is open (cooldown pending). CPU
        // is the fallback of last resort even when its window is full.
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
            SimTime lane_free;
            bool room;
            {
                std::lock_guard<std::mutex> dlock(devices_[d].mutex);
                if (d != 0 &&
                    devices_[d].breaker == BreakerState::kOpen &&
                    ready < devices_[d].breaker_open_until) {
                    continue;
                }
                lane_free = MinLaneLocked(devices_[d]);
                const std::size_t window = static_cast<std::size_t>(
                    static_cast<double>(devices_[d].lanes.size()) *
                    config_.window_per_lane);
                room = devices_[d].queue.size() + devices_[d].inflight <
                       window;
            }
            if (!room) {
                continue;
            }
            const SimTime finish = Max(ready, lane_free) + est->Total();
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
        work.kind = chosen_kind;
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
        Device& dev = devices_[chosen];
        ExternalScriptRuntime& runtime = *dev.runtime;
        const std::uint64_t in_bytes = static_cast<std::uint64_t>(rows) *
                                       acquired.model->num_cols *
                                       sizeof(float);
        work.invocation = runtime.Invoke();
        work.model_pre =
            work.invocation.cold
                ? runtime.ModelPreprocessing(acquired.model->model_bytes)
                : SimTime();
        work.transfer_to = runtime.TransferToProcess(in_bytes);
        work.transfer_from = runtime.TransferFromProcess(
            static_cast<std::uint64_t>(rows) * sizeof(float));
        work.data_pre =
            runtime.DataPreprocessing(rows, acquired.model->num_cols);
        work.scoring =
            acquired.model->scheduler->EstimateFor(chosen_kind, rows);
        const SimTime service = work.invocation.cost + work.model_pre +
                                work.transfer_to + work.transfer_from +
                                work.data_pre + work.scoring.Total();

        const SloPolicy& policy =
            config_.slo[static_cast<int>(work.pending->cls)];
        const SimTime deadline_at = work.pending->arrival + policy.deadline;
        bool expired = false;
        {
            std::lock_guard<std::mutex> dlock(dev.mutex);
            work.lane = 0;
            for (std::size_t i = 1; i < dev.lanes.size(); ++i) {
                if (dev.lanes[i] < dev.lanes[work.lane]) {
                    work.lane = i;
                }
            }
            work.start = Max(ready, dev.lanes[work.lane]);
            if (work.start > deadline_at) {
                // Deadline admission at dispatch: the modeled start
                // already overruns the class deadline, so the request
                // expires instead of scoring (and never occupies the
                // lane). An expiry is the strongest overload signal
                // there is: it counts as a missed-deadline sample in
                // the autoscaler's window alongside late completions.
                expired = true;
                ++dev.window_completions;
                ++dev.window_deadline_misses;
            } else {
                dev.lanes[work.lane] = work.start + service;
            }
        }
        if (expired) {
            Pending& p = *work.pending;
            FleetReply reply;
            reply.status = RequestStatus::kExpired;
            reply.slo = p.cls;
            reply.arrival = p.arrival;
            reply.finish = work.start;
            reply.registry_miss = work.registry_miss;
            reply.error = "fleet: deadline expired before dispatch";
            stats_.RecordExpired(p.cls, p.arrival, work.start);
            TraceCollector::Get().EmitSim(
                StageKind::kQuery, "fleet-request", p.trace, p.arrival,
                work.start - p.arrival,
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
            signals.lanes = device.lanes.size();
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
            if (delta > 0) {
                // New lanes start at the pool's current horizon — extra
                // capacity from "now" on, no retroactive service.
                device.lanes.insert(device.lanes.end(), delta,
                                    MinLaneLocked(device));
                device.last_scale_change = now;
                device.window_completions = 0;
                device.window_deadline_misses = 0;
            } else if (delta < 0) {
                // Retire the most-idle lanes.
                std::sort(device.lanes.begin(), device.lanes.end());
                device.lanes.resize(device.lanes.size() -
                                    static_cast<std::size_t>(-delta));
                device.last_scale_change = now;
                device.window_completions = 0;
                device.window_deadline_misses = 0;
            }
            lanes_after = device.lanes.size();
        }
        if (delta != 0) {
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
    const auto device_class = static_cast<DeviceClass>(device_index);
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
        ExecuteOne(device, device_class, std::move(work));
        {
            std::lock_guard<std::mutex> dlock(device.mutex);
            --device.inflight;
        }
        scheduler_cv_.notify_one();
    }
}

SimTime
FleetService::NextBackoff(Device& device, int device_index,
                          std::size_t retry_index)
{
    const serve::RetryPolicy& policy = config_.retry;
    DBS_ASSERT(retry_index >= 1);
    double backoff_s =
        policy.initial_backoff.seconds() *
        std::pow(policy.backoff_multiplier,
                 static_cast<double>(retry_index - 1));
    backoff_s = std::min(backoff_s, policy.max_backoff.seconds());
    std::uint64_t seq;
    {
        std::lock_guard<std::mutex> lock(device.mutex);
        seq = device.attempt_seq++;
    }
    if (policy.jitter_frac > 0.0 && backoff_s > 0.0) {
        Rng jitter(policy.jitter_seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(device_index) + 1)) ^
                   (0xbf58476d1ce4e5b9ULL * (seq + 1)));
        backoff_s += backoff_s * policy.jitter_frac * jitter.NextDouble();
    }
    return SimTime::Seconds(backoff_s);
}

void
FleetService::BreakerOnFault(Device& device, DeviceClass device_class,
                             SimTime now, const SpanContext& parent)
{
    BreakerState before;
    BreakerState after;
    {
        std::lock_guard<std::mutex> lock(device.mutex);
        before = device.breaker;
        ++device.consecutive_failures;
        if (device.breaker == BreakerState::kHalfOpen) {
            device.breaker = BreakerState::kOpen;
            device.breaker_open_until = now + config_.breaker.open_cooldown;
        } else if (device.breaker == BreakerState::kClosed &&
                   device.consecutive_failures >=
                       config_.breaker.failure_threshold) {
            device.breaker = BreakerState::kOpen;
            device.breaker_open_until = now + config_.breaker.open_cooldown;
        }
        after = device.breaker;
    }
    if (after == before) {
        return;
    }
    stats_.SetBreakerState(device_class, after);
    stats_.RecordBreakerOpen(device_class);
    TraceCollector::Get().EmitSim(
        StageKind::kBreaker, "breaker-open", parent, now, SimTime(),
        {{"device", static_cast<double>(device_class)},
         {"state", static_cast<double>(after)}});
}

void
FleetService::BreakerOnSuccess(Device& device, DeviceClass device_class,
                               SimTime now, const SpanContext& parent)
{
    BreakerState before;
    {
        std::lock_guard<std::mutex> lock(device.mutex);
        before = device.breaker;
        device.consecutive_failures = 0;
        device.breaker = BreakerState::kClosed;
    }
    if (before == BreakerState::kClosed) {
        return;
    }
    stats_.SetBreakerState(device_class, BreakerState::kClosed);
    TraceCollector::Get().EmitSim(
        StageKind::kBreaker, "breaker-close", parent, now, SimTime(),
        {{"device", static_cast<double>(device_class)},
         {"state", static_cast<double>(BreakerState::kClosed)}});
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
FleetService::ExecuteOne(Device& device, DeviceClass device_class,
                         DeviceWork work)
{
    TraceCollector& tracer = TraceCollector::Get();
    Pending& pending = *work.pending;
    const WarmModel& model = *work.model;
    const SloPolicy& policy = config_.slo[static_cast<int>(pending.cls)];
    const SimTime arrival = pending.arrival;
    const SimTime deadline_at = arrival + policy.deadline;
    const std::size_t rows = pending.request.num_rows;

    // Lane, modeled start, and first-attempt costs were fixed by the
    // scheduler at dispatch (the lane horizon is already charged up to
    // the projected finish).
    const std::size_t lane_idx = work.lane;
    const SimTime start = work.start;

    auto finish_reply = [&](FleetReply reply) {
        {
            ScopedSpan fulfill(StageKind::kReply, "fulfill", pending.trace);
            pending.promise.set_value(std::move(reply));
        }
        SettleOne();
    };

    FleetReply reply;
    reply.slo = pending.cls;
    reply.arrival = arrival;
    reply.registry_miss = work.registry_miss;

    fault::FaultInjector& injector = fault::FaultInjector::Get();
    const std::uint64_t bytes_in =
        static_cast<std::uint64_t>(rows) * model.num_cols * sizeof(float);
    const std::uint64_t bytes_out =
        static_cast<std::uint64_t>(rows) * sizeof(float);

    Device* exec_device = &device;
    DeviceClass exec_class = device_class;
    BackendKind exec_kind = work.kind;
    std::size_t exec_lane = lane_idx;
    bool degraded = false;
    SimTime now = start;
    std::size_t total_attempts = 0;
    std::size_t device_attempts = 0;
    bool success = false;

    // First attempt: costs modeled by the scheduler at dispatch.
    // Retries and CPU fallback re-model against the then-current
    // device runtime (pool state is racy under faults, which is fine —
    // fault campaigns are stochastic by nature).
    InvocationCost invocation = work.invocation;
    SimTime model_pre = work.model_pre;
    SimTime transfer_to = work.transfer_to;
    SimTime transfer_from = work.transfer_from;
    SimTime data_pre = work.data_pre;
    OffloadBreakdown scoring = work.scoring;

    for (;;) {
        ++total_attempts;
        ++device_attempts;
        if (total_attempts > 1) {
            ExternalScriptRuntime& runtime = *exec_device->runtime;
            invocation = runtime.Invoke();
            model_pre = invocation.cold
                            ? runtime.ModelPreprocessing(model.model_bytes)
                            : SimTime();
            transfer_to = runtime.TransferToProcess(bytes_in);
            transfer_from = runtime.TransferFromProcess(bytes_out);
            data_pre = runtime.DataPreprocessing(rows, model.num_cols);
            scoring = model.scheduler->EstimateFor(exec_kind, rows);
        }

        bool faulted = invocation.crashed;
        fault::FaultSite fault_site = fault::FaultSite::kExternalInvoke;
        SimTime wasted = invocation.cost;
        if (!faulted) {
            const auto sites = OffloadFaultSites(exec_kind);
            for (std::size_t i = 0; i < sites.size(); ++i) {
                if (injector.ShouldFail(sites[i])) {
                    faulted = true;
                    fault_site = sites[i];
                    wasted = invocation.cost + model_pre + transfer_to +
                             data_pre +
                             FaultedOffloadCost(scoring, exec_class, i);
                    break;
                }
            }
        }
        if (!faulted) {
            success = true;
            break;
        }

        tracer.EmitSim(StageKind::kFault, fault::FaultSiteName(fault_site),
                       pending.trace, now, wasted,
                       {{"device", static_cast<double>(exec_class)},
                        {"attempt", static_cast<double>(total_attempts)}});
        stats_.RecordFault(exec_class);
        now += wasted;
        BreakerOnFault(*exec_device, exec_class, now, pending.trace);

        if (device_attempts < config_.retry.max_attempts) {
            const SimTime backoff =
                NextBackoff(*exec_device, static_cast<int>(exec_class),
                            device_attempts);
            const SimTime redispatch = now + backoff;
            if (redispatch > deadline_at) {
                break;  // no retry the deadline permits
            }
            tracer.EmitSim(StageKind::kRetryBackoff, "retry-backoff",
                           pending.trace, now, backoff,
                           {{"attempt",
                             static_cast<double>(total_attempts)}});
            stats_.RecordRetry(exec_class);
            now = redispatch;
            continue;
        }

        if (config_.cpu_fallback && exec_class != DeviceClass::kCpu) {
            // Degrade: release the accelerator lane at `now`, hand the
            // request to the CPU pool with a fresh attempt budget.
            {
                std::lock_guard<std::mutex> lock(exec_device->mutex);
                exec_device->lanes[exec_lane] =
                    Max(exec_device->lanes[exec_lane], now);
            }
            auto cpu_best =
                BestOfClass(*model.scheduler, DeviceClass::kCpu, rows);
            DBS_ASSERT(cpu_best.has_value());
            const auto from_class = exec_class;
            exec_device = &devices_[0];
            exec_class = DeviceClass::kCpu;
            exec_kind = cpu_best->kind;
            degraded = true;
            device_attempts = 0;
            {
                std::lock_guard<std::mutex> lock(exec_device->mutex);
                exec_lane = 0;
                for (std::size_t i = 1; i < exec_device->lanes.size();
                     ++i) {
                    if (exec_device->lanes[i] <
                        exec_device->lanes[exec_lane]) {
                        exec_lane = i;
                    }
                }
                now = Max(now, exec_device->lanes[exec_lane]);
            }
            stats_.RecordFallback(from_class);
            tracer.EmitSim(StageKind::kFallback, "cpu-fallback",
                           pending.trace, now, SimTime(),
                           {{"from", static_cast<double>(from_class)}});
            continue;
        }
        break;
    }

    if (!success) {
        {
            std::lock_guard<std::mutex> lock(exec_device->mutex);
            exec_device->lanes[exec_lane] =
                Max(exec_device->lanes[exec_lane], now);
        }
        reply.status = RequestStatus::kFailed;
        reply.finish = now;
        reply.attempts = total_attempts;
        reply.degraded = degraded;
        reply.error = "fleet: injected faults exhausted every retry";
        stats_.RecordFailed(pending.cls, arrival, now);
        tracer.EmitSim(StageKind::kQuery, "fleet-request", pending.trace,
                       arrival, now - arrival,
                       {{"class", static_cast<double>(pending.cls)},
                        {"failed", 1.0}});
        finish_reply(std::move(reply));
        tracer.Drain();
        return;
    }

    const SimTime transfer = transfer_to + transfer_from;
    const SimTime service = invocation.cost + model_pre + transfer +
                            data_pre + scoring.Total();
    const SimTime finish = now + service;
    {
        std::lock_guard<std::mutex> lock(exec_device->mutex);
        exec_device->lanes[exec_lane] =
            Max(exec_device->lanes[exec_lane], finish);
    }
    BreakerOnSuccess(*exec_device, exec_class, finish, pending.trace);
    stats_.RecordDispatch(exec_class, 1, rows, service);

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
    // attempt (faults and backoffs already own start..now).
    tracer.EmitSim(StageKind::kQueueWait, "queue-wait", pending.trace,
                   work.ready, start - work.ready);
    SimTime cursor = now;
    const struct {
        StageKind stage;
        const char* name;
        SimTime dur;
    } stages[] = {
        {StageKind::kInvocation, "invocation", invocation.cost},
        {StageKind::kModelPreproc, "model-preproc", model_pre},
        {StageKind::kMarshal, "transfer", transfer},
        {StageKind::kDataPreproc, "data-preproc", data_pre},
        {StageKind::kScoring, "scoring", scoring.Total()},
    };
    for (const auto& s : stages) {
        tracer.EmitSim(s.stage, s.name, pending.trace, cursor, s.dur);
        cursor += s.dur;
    }

    reply.status = RequestStatus::kCompleted;
    reply.device = exec_class;
    reply.backend = exec_kind;
    reply.degraded = degraded;
    reply.deadline_miss = deadline_miss;
    reply.attempts = total_attempts;
    reply.finish = finish;
    if (!pending.request.rows.empty()) {
        // Functional scoring through the registry's cached kernel: the
        // same compiled plan serves warm, re-warmed, and degraded
        // dispatches, so predictions are bit-identical in every case.
        reply.predictions = model.forest.PredictBatch(
            pending.request.rows.data(), rows, model.num_cols);
    }
    stats_.RecordCompleted(pending.cls, arrival, finish, degraded,
                           deadline_miss);
    tracer.EmitSim(StageKind::kQuery, "fleet-request", pending.trace,
                   arrival, finish - arrival,
                   {{"class", static_cast<double>(pending.cls)},
                    {"miss", deadline_miss ? 1.0 : 0.0}});
    finish_reply(std::move(reply));
    tracer.Drain();
}

}  // namespace dbscore::fleet

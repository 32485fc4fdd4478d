#include "dbscore/fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <iterator>
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
      depth_cap_(static_cast<std::size_t>(
                     std::max(config_.autoscaler.scale_up_queue_per_lane,
                              config_.autoscaler.scale_down_queue_per_lane) *
                     static_cast<double>(std::max(
                         config_.autoscaler.max_lanes,
                         InitialLanes(config_)))) +
                 1),
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
    threads_->Submit([this] { DispatcherLoop(); });
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
    dispatcher_cv_.notify_all();
    threads_.reset();  // joins dispatcher + workers
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
    dispatcher_cv_.notify_one();
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

void
FleetService::DispatcherLoop()
{
    std::unique_lock<std::mutex> lock(admission_mutex_);
    for (;;) {
        dispatcher_cv_.wait(lock, [&] {
            return !dispatch_held_ && (stop_requested_ || !wfq_->empty());
        });
        if (wfq_->empty()) {
            break;  // stop requested and the central queue drained
        }
        PendingPtr pending = *wfq_->Pop();
        const std::string model_id = model_ids_[pending->model_idx];
        // Captured under the lock for the autoscaler: the central
        // backlog is where overload piles up.
        const std::size_t central_backlog = wfq_->size();
        lock.unlock();
        // Dispatch outside the admission lock so submissions keep
        // flowing during a registry build.
        Dispatch(std::move(pending), model_id, central_backlog);
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
FleetService::Dispatch(PendingPtr pending, const std::string& model_id,
                       std::size_t central_backlog)
{
    Pending& p = *pending;
    FleetReply reply;
    reply.slo = p.cls;
    reply.arrival = p.arrival;

    AcquireResult acquired;
    try {
        acquired = registry_.Acquire(model_id, p.trace, p.arrival);
    } catch (const std::exception& e) {
        // A model that cannot be built fails its requests; the
        // service keeps serving every other model.
        Fail(p, std::move(reply), p.arrival, e.what());
        TraceCollector::Get().Drain();
        return;
    }
    const WarmModel& model = *acquired.model;
    reply.registry_miss = !acquired.hit;
    const std::vector<float>& payload = p.request.rows;
    if (!payload.empty() &&
        payload.size() != p.request.num_rows * model.num_cols) {
        // The worker would read past (or ignore part of) the payload.
        Fail(p, std::move(reply), p.arrival,
             "fleet: payload is not num_rows x the model's columns");
        TraceCollector::Get().Drain();
        return;
    }
    const serve::LaneModel lane_model = LaneModelOf(model);
    const SimTime ready = p.arrival + acquired.build_cost;
    const std::size_t rows = p.request.num_rows;

    // Earliest-finish placement across devices, skipping accelerators
    // whose breaker turns the dispatch away (open, cooldown pending).
    // CPU is always admitted.
    int chosen = -1;
    BackendKind chosen_kind = BackendKind::kCpuSklearn;
    SimTime chosen_finish;
    for (int d = 0; d < 3; ++d) {
        const auto device_class = static_cast<DeviceClass>(d);
        auto est = BestOfClass(*model.scheduler, device_class, rows);
        if (!est.has_value()) {
            continue;
        }
        const auto lane = lanes_.Admit(device_class, ready, p.trace);
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
    DBS_ASSERT(chosen >= 0);  // the CPU can always host the model
    Device& placed = devices_[chosen];

    // Model the first attempt's full cost and reserve the lane up to
    // its projected finish, then run the whole attempt loop — faults,
    // backoff, retries, CPU degrade — right here, before the next
    // dispatch. Every modeled step (lane horizons, breakers, runtime
    // warm/cold state, the fault streams) thus evolves in dispatch
    // order alone.
    serve::LaneRun run;
    run.device = static_cast<DeviceClass>(chosen);
    run.kind = chosen_kind;
    run.rows = rows;
    const SloPolicy& policy = config_.slo[static_cast<int>(p.cls)];
    const SimTime deadline_at = p.arrival + policy.deadline;
    lanes_.Reserve(lane_model, run, ready, deadline_at);
    const SimTime start = run.now;
    if (start > deadline_at) {
        // Deadline admission at dispatch: the modeled start already
        // overruns the class deadline, so the request expires instead
        // of scoring (Reserve left the lane uncharged). An expiry is
        // the strongest overload signal there is: it counts as a
        // missed-deadline sample in the autoscaler's window alongside
        // late completions.
        ++placed.window_completions;
        ++placed.window_deadline_misses;
        reply.status = RequestStatus::kExpired;
        reply.finish = start;
        reply.error = "fleet: deadline expired before dispatch";
        stats_.RecordExpired(p.cls, p.arrival, start);
        TraceCollector::Get().EmitSim(
            StageKind::kQuery, "fleet-request", p.trace, p.arrival,
            start - p.arrival,
            {{"class", static_cast<double>(p.cls)}, {"expired", 1.0}});
        Answer(p, std::move(reply));
    } else {
        serve::LaneRiders rider(p.trace, deadline_at);
        lanes_.Run(lane_model, run, rider);
        reply.attempts = run.attempts;
        reply.degraded = run.degraded;
        if (run.completed) {
            Complete(placed, std::move(pending), acquired.model, run,
                     ready, start, deadline_at, std::move(reply));
        } else {
            Commit(placed, run.now);
            Fail(p, std::move(reply), run.now,
                 run.rows == 0
                     ? "fleet: deadline precludes retry"
                     : "fleet: injected faults exhausted every retry");
        }
    }

    MaybeAutoscale(ready, central_backlog);
    // Keep the per-thread rings far from overflow: a dispatch emits at
    // most a dozen spans.
    TraceCollector::Get().Drain();
}

void
FleetService::Complete(Device& placed, PendingPtr pending,
                       WarmModelPtr model, const serve::LaneRun& run,
                       SimTime ready, SimTime start, SimTime deadline_at,
                       FleetReply reply)
{
    TraceCollector& tracer = TraceCollector::Get();
    const Pending& p = *pending;
    const serve::AttemptCost& cost = run.cost;
    const SimTime service = cost.Total();
    const SimTime finish = run.now + service;
    const bool deadline_miss = finish > deadline_at;
    Commit(placed, finish);
    // Autoscaler window sample on the *placement* device (the one
    // whose pool this dispatch was sized for).
    ++placed.window_completions;
    if (deadline_miss) {
        ++placed.window_deadline_misses;
    }
    stats_.RecordDispatch(run.device, 1, p.request.num_rows, service);

    // Simulated stage chain: queue wait at its true timeline position,
    // then the dispatch costs laid end to end from the successful
    // attempt (faults and backoffs already own start..run.now).
    tracer.EmitSim(StageKind::kQueueWait, "queue-wait", p.trace, ready,
                   start - ready);
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
        tracer.EmitSim(s.stage, s.name, p.trace, cursor, s.dur);
        cursor += s.dur;
    }

    reply.status = RequestStatus::kCompleted;
    reply.device = run.device;
    reply.backend = run.kind;
    reply.deadline_miss = deadline_miss;
    reply.finish = finish;
    stats_.RecordCompleted(p.cls, p.arrival, finish, run.degraded,
                           deadline_miss);
    tracer.EmitSim(StageKind::kQuery, "fleet-request", p.trace, p.arrival,
                   finish - p.arrival,
                   {{"class", static_cast<double>(p.cls)},
                    {"miss", deadline_miss ? 1.0 : 0.0}});
    HandOff(placed,
            DeviceWork{std::move(pending), std::move(model), std::move(reply)});
}

void
FleetService::Fail(Pending& pending, FleetReply reply, SimTime at,
                   std::string why)
{
    reply.status = RequestStatus::kFailed;
    reply.finish = at;
    reply.error = std::move(why);
    stats_.RecordFailed(pending.cls, pending.arrival, at);
    TraceCollector::Get().EmitSim(
        StageKind::kQuery, "fleet-request", pending.trace, pending.arrival,
        at - pending.arrival,
        {{"class", static_cast<double>(pending.cls)}, {"failed", 1.0}});
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
FleetService::HandOff(Device& device, DeviceWork work)
{
    {
        std::unique_lock<std::mutex> dlock(device.mutex);
        const auto window = static_cast<std::size_t>(
            static_cast<double>(device.lanes) * config_.window_per_lane);
        // The worker signals `room` as it frees slots; the timeout is a
        // lost-wakeup backstop (wall-clock liveness only — modeled time
        // never sees it).
        while (device.queue.size() + device.inflight >= window) {
            device.room.wait_for(dlock, std::chrono::milliseconds(1));
        }
        device.queue.push_back(std::move(work));
    }
    device.cv.notify_one();
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
        const FleetRequest& request = work.pending->request;
        if (!request.rows.empty()) {
            // Functional scoring through the registry's shared
            // CompiledModel: the same compiled plan serves warm,
            // re-warmed and degraded dispatches, so predictions are
            // bit-identical in every case. Wall-clock only; the
            // modeled reply is already fixed.
            work.reply.predictions = work.model->compiled->Predict(
                RowView::Borrow(request.rows.data(), request.num_rows,
                                work.model->num_cols));
        }
        Answer(*work.pending, std::move(work.reply));
        {
            std::lock_guard<std::mutex> dlock(device.mutex);
            --device.inflight;
        }
        device.room.notify_one();
    }
}

void
FleetService::Answer(Pending& pending, FleetReply reply)
{
    {
        ScopedSpan fulfill(StageKind::kReply, "fulfill", pending.trace);
        pending.promise.set_value(std::move(reply));
    }
    SettleOne();
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

}  // namespace dbscore::fleet

#include "dbscore/serve/scoring_service.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/trace/exporters.h"
#include "dbscore/trace/trace.h"

namespace dbscore::serve {

using trace::StageKind;
using trace::TraceCollector;

ScoringService::ModelEntry::ModelEntry(const HardwareProfile& profile,
                                       const TreeEnsemble& model,
                                       const ModelStats& stats)
    : scheduler(profile, model, stats),
      compiled(model),
      num_cols(stats.num_features),
      model_bytes(stats.serialized_bytes)
{
}

namespace {

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

ScoringService::ScoringService(const HardwareProfile& profile,
                               ServiceConfig config)
    : profile_(profile), config_(std::move(config)),
      lanes_(1, config_.runtime_params, config_.retry, config_.breaker,
             config_.cpu_fallback),
      trace_domain_(TraceCollector::Get().NewDomain())
{
    if (config_.admission_capacity == 0) {
        throw InvalidArgument("service: zero admission capacity");
    }
    // Validate the coalescer config eagerly (the dispatcher constructs
    // its own instance later).
    BatchCoalescer validate(config_.coalescer);
}

ScoringService::~ScoringService()
{
    Stop();
}

void
ScoringService::RegisterModel(const std::string& id,
                              const TreeEnsemble& model,
                              const ModelStats& stats)
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_) {
        throw InvalidArgument("service: RegisterModel while running");
    }
    if (models_.count(id) != 0) {
        throw InvalidArgument("service: duplicate model id: " + id);
    }
    models_.emplace(id,
                    std::make_unique<ModelEntry>(profile_, model, stats));
}

std::vector<BackendKind>
ScoringService::BackendsFor(const std::string& id) const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    auto it = models_.find(id);
    if (it == models_.end()) {
        throw NotFound("service: unknown model: " + id);
    }
    return it->second->scheduler.Available();
}

void
ScoringService::Start()
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_) {
        return;
    }
    if (stop_requested_ || threads_ != nullptr) {
        throw InvalidArgument("service: cannot restart a stopped service");
    }
    if (models_.empty()) {
        throw InvalidArgument("service: Start with no registered models");
    }
    running_ = true;
    threads_ = std::make_unique<ThreadPool>(4);
    threads_->Submit([this] { DispatcherLoop(); });
    for (int d = 0; d < 3; ++d) {
        threads_->Submit([this, d] { WorkerLoop(d); });
    }
}

bool
ScoringService::running() const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return running_;
}

void
ScoringService::Stop()
{
    bool was_running = false;
    std::deque<PendingRequest> orphaned;
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        if (stop_requested_) {
            return;  // idempotent
        }
        stop_requested_ = true;
        was_running = running_;
        if (!was_running) {
            // Never started: nobody will ever serve the queue.
            orphaned.swap(admission_);
        }
    }
    admission_cv_.notify_all();

    if (was_running) {
        // 1. Dispatcher drains the admission queue, flushes open
        //    batches, and exits.
        {
            std::unique_lock<std::mutex> lock(admission_mutex_);
            settled_cv_.wait(lock, [this] { return dispatcher_done_; });
        }
        // 2. Workers drain their batch queues and exit.
        for (Device& d : devices_) {
            {
                std::lock_guard<std::mutex> lock(d.mutex);
                d.stop = true;
            }
            d.cv.notify_all();
        }
        threads_->Shutdown();
    }

    for (PendingRequest& r : orphaned) {
        ScoreReply reply;
        reply.status = RequestStatus::kRejected;
        reply.finish = r.request.arrival.value_or(SimTime());
        reply.error = "service stopped before Start";
        const SimTime finish = reply.finish;
        stats_.RecordRejected();
        r.handle->Fulfill(std::move(reply));
        SettleOne(finish);
    }

    std::lock_guard<std::mutex> lock(admission_mutex_);
    running_ = false;
}

void
ScoringService::Drain()
{
    std::unique_lock<std::mutex> lock(admission_mutex_);
    settled_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

SimTime
ScoringService::StampArrival(const std::optional<SimTime>& arrival)
{
    // Caller holds admission_mutex_.
    if (arrival.has_value()) {
        modeled_now_ = Max(modeled_now_, *arrival);
        return *arrival;
    }
    return modeled_now_;
}

PendingScorePtr
ScoringService::Submit(ScoreRequest request)
{
    auto handle = std::make_shared<PendingScore>();
    stats_.RecordSubmitted();
    TraceCollector& tracer = TraceCollector::Get();
    const double submit_us = tracer.NowWallMicros();
    const std::size_t num_rows = request.num_rows;
    trace::SpanContext root;

    std::string reject_reason;
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        auto model_it = models_.find(request.model_id);
        if (stop_requested_) {
            reject_reason = "service is stopped";
        } else if (model_it == models_.end()) {
            reject_reason = "unknown model: " + request.model_id;
        } else if (request.num_rows == 0) {
            reject_reason = "zero rows";
        } else if (!request.rows.empty() &&
                   (request.rows.rows() != request.num_rows ||
                    request.rows.cols() !=
                        model_it->second->num_cols)) {
            reject_reason = "row payload arity mismatch";
        } else if (in_flight_ >= config_.admission_capacity) {
            reject_reason = "admission queue full";
        } else {
            request.arrival = StampArrival(request.arrival);
            ++in_flight_;
            PendingRequest pending{std::move(request), handle};
            pending.trace = tracer.NewRootContext(trace_domain_);
            pending.submit_wall_us = submit_us;
            root = pending.trace;
            admission_.push_back(std::move(pending));
            stats_.RecordAdmitted();
        }
    }

    if (!reject_reason.empty()) {
        ScoreReply reply;
        reply.status = RequestStatus::kRejected;
        reply.error = std::move(reject_reason);
        stats_.RecordRejected();
        handle->Fulfill(std::move(reply));
    } else {
        // Wall span for the admission handoff, on the client's thread.
        tracer.EmitWall(StageKind::kAdmission, "admit", root, submit_us,
                        tracer.NowWallMicros() - submit_us,
                        {{"rows", static_cast<double>(num_rows)}});
        admission_cv_.notify_one();
    }
    return handle;
}

ScoreReply
ScoringService::ScoreSync(ScoreRequest request)
{
    return Submit(std::move(request))->Wait();
}

ServiceSnapshot
ScoringService::Stats() const
{
    ServiceSnapshot snap = stats_.Snapshot(lanes_);
    // Stage attribution comes from the trace subsystem: sum the
    // simulated durations of this service's per-request stage spans.
    auto totals = TraceCollector::Get().StageSimTotals(trace_domain_);
    {
        // Per-phase view: the collector's totals span the domain's
        // whole lifetime; subtract what had accumulated at the last
        // ResetStats().
        std::lock_guard<std::mutex> lock(baseline_mutex_);
        for (std::size_t i = 0; i < totals.size(); ++i) {
            totals[i] = Max(SimTime(), totals[i] - stage_baseline_[i]);
        }
    }
    auto of = [&totals](StageKind stage) {
        return totals[static_cast<int>(stage)];
    };
    StageTotals& st = snap.stage_totals;
    st.coalesce_delay = of(StageKind::kCoalesce);
    st.queue_wait = of(StageKind::kQueueWait);
    st.invocation = of(StageKind::kInvocation);
    st.model_preprocessing = of(StageKind::kModelPreproc);
    st.transfer = of(StageKind::kMarshal);
    st.data_preprocessing = of(StageKind::kDataPreproc);
    st.scoring = of(StageKind::kScoring);
    return snap;
}

void
ScoringService::ResetStats()
{
    // Order matters: rebaseline the trace totals first, then zero the
    // counters, so a concurrent Stats() never pairs new counters with
    // pre-reset stage totals.
    {
        std::lock_guard<std::mutex> lock(baseline_mutex_);
        stage_baseline_ =
            TraceCollector::Get().StageSimTotals(trace_domain_);
    }
    stats_.Reset();
    lanes_.ResetCounters();
}

void
ScoringService::ExportTrace(std::ostream& os) const
{
    TraceCollector& tracer = TraceCollector::Get();
    trace::WriteChromeTrace(os, tracer.SpansForDomain(trace_domain_),
                            tracer.TotalDropped());
}

void
ScoringService::SettleOne(SimTime finish)
{
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        DBS_ASSERT(in_flight_ > 0);
        --in_flight_;
        modeled_now_ = Max(modeled_now_, finish);
    }
    settled_cv_.notify_all();
}

void
ScoringService::DispatcherLoop()
{
    BatchCoalescer coalescer(config_.coalescer);
    std::deque<PendingRequest> grabbed;
    for (;;) {
        bool stopping = false;
        grabbed.clear();
        {
            std::unique_lock<std::mutex> lock(admission_mutex_);
            auto ready = [this] {
                return stop_requested_ || !admission_.empty();
            };
            if (coalescer.open_batches() > 0) {
                // Open batches must not outlive an idle flush interval,
                // or a lone synchronous caller would hang.
                admission_cv_.wait_for(lock, config_.flush_interval,
                                       ready);
            } else {
                admission_cv_.wait(lock, ready);
            }
            grabbed.swap(admission_);
            stopping = stop_requested_;
        }
        if (grabbed.empty()) {
            // Idle tick (or stop): strand no open batch.
            for (Batch& batch : coalescer.Flush()) {
                PlaceAndEnqueue(std::move(batch));
            }
            if (stopping) {
                break;
            }
            continue;
        }
        for (PendingRequest& r : grabbed) {
            for (Batch& batch : coalescer.Add(std::move(r))) {
                PlaceAndEnqueue(std::move(batch));
            }
        }
    }
    // Structural shutdown-drain guarantee: the exit path above flushes
    // every open batch, so nothing should still be pending here. If a
    // future refactor breaks that, fail the stranded requests loudly
    // (kFailed replies, settled counters) — never drop their handles
    // silently, which would hang every waiter forever.
    for (Batch& batch : coalescer.Flush()) {
        for (PendingRequest& m : batch.members) {
            const SimTime arrival = m.request.arrival.value_or(SimTime());
            ScoreReply reply;
            reply.status = RequestStatus::kFailed;
            reply.finish = arrival;
            reply.error = "service stopped before dispatch";
            stats_.RecordFailed(arrival, arrival);
            EmitRequestSpan(m, arrival, arrival, /*expired=*/false);
            m.handle->Fulfill(std::move(reply));
            SettleOne(arrival);
        }
    }
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        dispatcher_done_ = true;
    }
    settled_cv_.notify_all();
}

void
ScoringService::PlaceAndEnqueue(Batch batch)
{
    TraceCollector& tracer = TraceCollector::Get();
    const double place_start_us = tracer.NowWallMicros();
    const ModelEntry& entry = *models_.at(batch.model_id);
    const std::size_t rows = batch.total_rows;
    std::optional<BackendEstimate> per_class[3] = {
        BestOfClass(entry.scheduler, DeviceClass::kCpu, rows),
        BestOfClass(entry.scheduler, DeviceClass::kGpu, rows),
        BestOfClass(entry.scheduler, DeviceClass::kFpga, rows),
    };

    int chosen = 0;
    switch (config_.policy) {
      case WorkloadPolicy::kAlwaysCpu:
        chosen = 0;
        break;
      case WorkloadPolicy::kAlwaysFpga:
        chosen = 2;
        break;
      case WorkloadPolicy::kServiceOptimal: {
        double best = 1e30;
        for (int d = 0; d < 3; ++d) {
            if (per_class[d] && per_class[d]->Total().seconds() < best) {
                best = per_class[d]->Total().seconds();
                chosen = d;
            }
        }
        break;
      }
      case WorkloadPolicy::kQueueAware: {
        double best = 1e30;
        for (int d = 0; d < 3; ++d) {
            if (!per_class[d]) {
                continue;
            }
            const SimTime free_at =
                lanes_.Earliest(static_cast<DeviceClass>(d)).at;
            double wait = std::max(
                0.0, (free_at - batch.ready).seconds());
            double finish = wait + per_class[d]->Total().seconds();
            if (finish < best) {
                best = finish;
                chosen = d;
            }
        }
        break;
      }
    }
    if (!per_class[chosen]) {
        chosen = 0;  // the CPU can always host the model
    }
    DBS_ASSERT(per_class[chosen].has_value());

    // Circuit breaker: an open accelerator turns its batches away to
    // the CPU engine (flagged degraded) until the cooldown elapses; the
    // first batch ready at/after it goes through as the half-open
    // probe. The CPU has no reroute target, so its breaker never
    // redirects placement.
    DBS_ASSERT(!batch.members.empty());  // the coalescer's invariant
    const trace::SpanContext parent = batch.members.front().trace;
    const auto chosen_class = static_cast<DeviceClass>(chosen);
    if (chosen != 0 && config_.cpu_fallback &&
        !lanes_.Admit(chosen_class, batch.ready, parent)) {
        lanes_.Reroute(chosen_class, batch.ready, parent);
        batch.degraded = true;
        chosen = 0;
        DBS_ASSERT(per_class[chosen].has_value());
    }

    // Wall span for the dispatcher hop, parented to the oldest
    // member's request: coalescing decisions are per-batch but the
    // trace keeps one tree per request.
    tracer.EmitWall(StageKind::kCoalesce, "place", parent, place_start_us,
                    tracer.NowWallMicros() - place_start_us,
                    {{"requests", static_cast<double>(batch.members.size())},
                     {"rows", static_cast<double>(rows)},
                     {"device", static_cast<double>(chosen)}});

    Device& device = devices_[chosen];
    {
        std::lock_guard<std::mutex> lock(device.mutex);
        device.queue.emplace_back(std::move(batch),
                                  per_class[chosen]->kind);
    }
    device.cv.notify_one();
}

void
ScoringService::WorkerLoop(int device_index)
{
    Device& device = devices_[device_index];
    for (;;) {
        std::pair<Batch, BackendKind> work;
        {
            std::unique_lock<std::mutex> lock(device.mutex);
            device.cv.wait(lock, [&device] {
                return device.stop || !device.queue.empty();
            });
            if (device.queue.empty()) {
                return;  // stop requested and fully drained
            }
            work = std::move(device.queue.front());
            device.queue.pop_front();
        }
        ExecuteBatch(static_cast<DeviceClass>(device_index), work.first,
                     work.second);
    }
}

void
ScoringService::EmitRequestSpan(const PendingRequest& request,
                                SimTime arrival, SimTime finish,
                                bool expired) const
{
    if (!request.trace.valid()) {
        return;
    }
    TraceCollector& tracer = TraceCollector::Get();
    trace::SpanRecord record;
    record.trace_id = request.trace.trace_id;
    record.span_id = request.trace.span_id;
    record.domain = request.trace.domain;
    record.stage = StageKind::kQuery;
    record.name = "request";
    record.wall_start_us = request.submit_wall_us;
    record.wall_dur_us = tracer.NowWallMicros() - request.submit_wall_us;
    record.sim_start_s = arrival.seconds();
    record.sim_dur_s = (finish - arrival).seconds();
    record.AddAttr("rows", static_cast<double>(request.request.num_rows));
    record.AddAttr("expired", expired ? 1.0 : 0.0);
    tracer.Emit(record);
}

/** A dispatched batch's live members, as DeviceLanes::Run sees them. */
class ScoringService::BatchRiders final : public LaneRiders {
 public:
    BatchRiders(ScoringService& service, std::vector<PendingRequest>& live)
        : LaneRiders(live.front().trace, std::nullopt), service_(service),
          live_(live)
    {
    }

    std::size_t
    DropPastDeadline(SimTime redispatch, const LaneRun& run) override
    {
        std::vector<PendingRequest> retryable;
        retryable.reserve(live_.size());
        std::size_t rows = 0;
        for (PendingRequest& m : live_) {
            if (m.request.deadline.has_value() &&
                redispatch > *m.request.arrival + *m.request.deadline) {
                service_.FailMember(m, run, "fault: deadline precludes retry");
                continue;
            }
            rows += m.request.num_rows;
            retryable.push_back(std::move(m));
        }
        live_.swap(retryable);
        if (!live_.empty()) {
            parent = live_.front().trace;
        }
        return rows;
    }

 private:
    ScoringService& service_;
    std::vector<PendingRequest>& live_;
};

void
ScoringService::FailMember(PendingRequest& member, const LaneRun& run,
                           const char* why)
{
    const SimTime arrival = *member.request.arrival;
    ScoreReply reply;
    reply.status = RequestStatus::kFailed;
    reply.finish = run.now;
    reply.timing.latency = run.now - arrival;
    reply.attempts = run.attempts;
    reply.degraded = run.degraded;
    reply.error = why;
    stats_.RecordFailed(arrival, run.now);
    EmitRequestSpan(member, arrival, run.now, /*expired=*/false);
    member.handle->Fulfill(std::move(reply));
    SettleOne(run.now);
}

void
ScoringService::ExecuteBatch(DeviceClass device_class, Batch& batch,
                             BackendKind kind)
{
    TraceCollector& tracer = TraceCollector::Get();
    const ModelEntry& entry = *models_.at(batch.model_id);
    const LaneSlot lane = lanes_.Earliest(device_class);
    const SimTime start = Max(batch.ready, lane.at);

    // Deadline admission at dispatch: members whose modeled start
    // already overruns their deadline expire instead of scoring (and
    // shrink the dispatched batch).
    std::vector<PendingRequest> live;
    live.reserve(batch.members.size());
    std::size_t rows = 0;
    for (PendingRequest& m : batch.members) {
        const SimTime arrival = *m.request.arrival;
        if (m.request.deadline.has_value() &&
            start > arrival + *m.request.deadline) {
            ScoreReply reply;
            reply.status = RequestStatus::kExpired;
            reply.finish = start;
            reply.timing.latency = start - arrival;
            reply.error = "deadline expired before dispatch";
            stats_.RecordExpired(arrival, start);
            EmitRequestSpan(m, arrival, start, /*expired=*/true);
            m.handle->Fulfill(std::move(reply));
            SettleOne(start);
            continue;
        }
        rows += m.request.num_rows;
        live.push_back(std::move(m));
    }
    if (live.empty()) {
        return;  // nothing dispatched; the device stays free
    }

    // Batch cost: one external-process invocation + one DBMS<->process
    // round trip + one engine dispatch for the whole coalesced batch —
    // the amortization the paper's per-query pipeline forgoes. Under an
    // installed FaultPlan the lanes retry faulted attempts, then
    // degrade to the CPU engine; requests fail only once every
    // permitted attempt is spent or a deadline forbids the next one.
    LaneRun run;
    run.device = device_class;
    run.kind = kind;
    run.lane = lane.lane;
    run.now = start;
    run.rows = rows;
    run.degraded = batch.degraded;
    BatchRiders riders(*this, live);
    lanes_.Run({&entry.scheduler, entry.model_bytes, entry.num_cols}, run,
               riders);
    if (!run.completed) {
        for (PendingRequest& m : live) {
            FailMember(m, run, "injected faults exhausted every retry");
        }
        tracer.Drain();
        return;
    }

    const AttemptCost& cost = run.cost;
    const SimTime service = cost.Total();
    const SimTime finish = run.now + service;
    rows = run.rows;  // less any riders a retry's deadline dropped
    stats_.RecordBatch(run.device, live.size(), rows, service,
                       cost.invocation.cold);

    // Wall span for the dispatch on this worker thread; kernel spans
    // emitted while computing predictions nest under it implicitly.
    // Its simulated extent spans first dispatch through completion, so
    // faulted attempts and backoffs sit inside it on the timeline.
    trace::ScopedSpan exec(StageKind::kBatch, "batch-execute",
                           live.front().trace);
    exec.SetSim(start, finish - start);
    exec.AddAttr("requests", static_cast<double>(live.size()));
    exec.AddAttr("rows", static_cast<double>(rows));
    exec.AddAttr("device", static_cast<double>(run.device));

    const double n = static_cast<double>(live.size());
    for (PendingRequest& m : live) {
        const SimTime arrival = *m.request.arrival;
        const double share =
            static_cast<double>(m.request.num_rows) /
            static_cast<double>(rows);
        ScoreReply reply;
        reply.status = RequestStatus::kCompleted;
        reply.backend = run.kind;
        reply.finish = finish;
        reply.batch_requests = live.size();
        reply.batch_rows = rows;
        reply.cold_invocation = cost.invocation.cold;
        reply.attempts = run.attempts;
        reply.degraded = run.degraded;
        RequestTiming& t = reply.timing;
        t.coalesce_delay = Max(SimTime(), batch.ready - arrival);
        t.queue_wait = start - batch.ready;
        t.invocation_share = cost.invocation.cost / n;
        t.model_preproc_share = cost.model_pre / n;
        t.transfer_share = cost.Transfer() * share;
        t.data_preproc_share = cost.data_pre * share;
        t.scoring_share = ScaleBreakdown(cost.scoring, share);
        t.latency = finish - arrival;

        // Simulated stage chain, one span per paper component,
        // parented to the member's own request root: waiting spans at
        // their true timeline positions, then the request's share of
        // the batch cost laid end to end from the *successful*
        // dispatch at run.now (faults and backoffs between start and
        // then have their own kFault/kRetryBackoff spans).
        tracer.EmitSim(StageKind::kCoalesce, "coalesce-delay", m.trace,
                       arrival, t.coalesce_delay);
        tracer.EmitSim(StageKind::kQueueWait, "queue-wait", m.trace,
                       batch.ready, t.queue_wait);
        SimTime cursor = run.now;
        const struct {
            StageKind stage;
            const char* name;
            SimTime dur;
        } shares[] = {
            {StageKind::kInvocation, "invocation-share",
             t.invocation_share},
            {StageKind::kModelPreproc, "model-preproc-share",
             t.model_preproc_share},
            {StageKind::kMarshal, "transfer-share", t.transfer_share},
            {StageKind::kDataPreproc, "data-preproc-share",
             t.data_preproc_share},
            {StageKind::kScoring, "scoring-share",
             t.scoring_share.Total()},
        };
        for (const auto& s : shares) {
            tracer.EmitSim(s.stage, s.name, m.trace, cursor, s.dur);
            cursor += s.dur;
        }

        if (!m.request.rows.empty()) {
            // Functional scoring through the model compiled at
            // registration, traversing the request's view in place —
            // the rows were never copied between Submit and here.
            // Wall-clock only; the modeled timing above is already
            // fixed.
            reply.predictions = entry.compiled.Predict(m.request.rows);
        }
        stats_.RecordCompleted(t, arrival, finish, run.degraded);
        EmitRequestSpan(m, arrival, finish, /*expired=*/false);
        {
            trace::ScopedSpan fulfill(StageKind::kReply, "fulfill",
                                      m.trace);
            m.handle->Fulfill(std::move(reply));
        }
        SettleOne(finish);
    }

    // Keep the per-thread rings far from overflow under sustained
    // load: a batch emits at most ~10 spans per member.
    tracer.Drain();
}

}  // namespace dbscore::serve

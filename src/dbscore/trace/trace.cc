#include "dbscore/trace/trace.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace dbscore::trace {

namespace {

/** Small dense thread ids (1, 2, ...) — stable for a thread's life. */
std::uint32_t
ThisThreadId()
{
    static std::atomic<std::uint32_t> next{1};
    static thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

thread_local double g_sim_now_s = 0.0;

thread_local std::vector<SpanContext> g_span_stack;

}  // namespace

const char*
StageName(StageKind stage)
{
    switch (stage) {
    case StageKind::kNone: return "none";
    case StageKind::kQuery: return "query";
    case StageKind::kAdmission: return "admission";
    case StageKind::kCoalesce: return "coalesce";
    case StageKind::kQueueWait: return "queue-wait";
    case StageKind::kBatch: return "batch";
    case StageKind::kInvocation: return "invocation";
    case StageKind::kModelPreproc: return "model-preproc";
    case StageKind::kDataPreproc: return "data-preproc";
    case StageKind::kMarshal: return "marshal";
    case StageKind::kOffload: return "offload";
    case StageKind::kAccelPreproc: return "accel-preproc";
    case StageKind::kTransferIn: return "transfer-in";
    case StageKind::kAccelSetup: return "accel-setup";
    case StageKind::kScoring: return "scoring";
    case StageKind::kCompletionSignal: return "completion-signal";
    case StageKind::kTransferOut: return "transfer-out";
    case StageKind::kSoftwareOverhead: return "software-overhead";
    case StageKind::kKernel: return "kernel";
    case StageKind::kReply: return "reply";
    case StageKind::kFault: return "fault";
    case StageKind::kRetryBackoff: return "retry-backoff";
    case StageKind::kFallback: return "fallback";
    case StageKind::kBreaker: return "breaker";
    case StageKind::kPageRead: return "page-read";
    case StageKind::kPageWrite: return "page-write";
    case StageKind::kBufferPool: return "buffer-pool";
    case StageKind::kKernelBuild: return "kernel-build";
    case StageKind::kPlan: return "plan";
    case StageKind::kPlanCacheHit: return "plan-cache-hit";
    case StageKind::kRegistryHit: return "registry-hit";
    case StageKind::kRegistryEvict: return "registry-evict";
    case StageKind::kAutoscale: return "autoscale";
    case StageKind::kRecovery: return "recovery";
    case StageKind::kScrub: return "scrub";
    }
    return "unknown";
}

const char*
StagePaperComponent(StageKind stage)
{
    switch (stage) {
    case StageKind::kQuery: return "end-to-end query";
    case StageKind::kAdmission: return "serving overhead";
    case StageKind::kCoalesce: return "serving: batch wait";
    case StageKind::kQueueWait: return "serving: device queue";
    case StageKind::kBatch: return "serving: dispatch";
    case StageKind::kInvocation: return "Fig 11 invocation";
    case StageKind::kModelPreproc: return "Fig 11 model preprocessing";
    case StageKind::kDataPreproc: return "Fig 11 data preprocessing";
    case StageKind::kMarshal: return "Fig 11 data transfer";
    case StageKind::kOffload: return "Fig 11 scoring (total)";
    case StageKind::kAccelPreproc: return "Fig 6/7 preprocessing";
    case StageKind::kTransferIn: return "Fig 6/7 input transfer";
    case StageKind::kAccelSetup: return "Fig 6/7 setup";
    case StageKind::kScoring: return "Fig 6/7 compute";
    case StageKind::kCompletionSignal: return "Fig 6/7 completion signal";
    case StageKind::kTransferOut: return "Fig 6/7 result transfer";
    case StageKind::kSoftwareOverhead: return "Fig 6/7 software overhead";
    case StageKind::kKernel: return "functional kernel";
    case StageKind::kReply: return "serving overhead";
    case StageKind::kFault: return "resilience: wasted work";
    case StageKind::kRetryBackoff: return "resilience: retry backoff";
    case StageKind::kFallback: return "resilience: CPU fallback";
    case StageKind::kBreaker: return "resilience: breaker transition";
    case StageKind::kPageRead: return "storage: page read";
    case StageKind::kPageWrite: return "storage: page write";
    case StageKind::kBufferPool: return "storage: pool miss";
    case StageKind::kKernelBuild: return "functional kernel build";
    case StageKind::kPlan: return "dbms: query planning";
    case StageKind::kPlanCacheHit: return "dbms: plan cache hit";
    case StageKind::kRegistryHit: return "fleet: registry hit";
    case StageKind::kRegistryEvict: return "fleet: registry eviction";
    case StageKind::kAutoscale: return "fleet: autoscale";
    case StageKind::kRecovery: return "storage: crash recovery";
    case StageKind::kScrub: return "storage: scrub pass";
    default: return "-";
    }
}

/* ---------------------------------------------------------------- */
/* SpanRing                                                         */
/* ---------------------------------------------------------------- */

SpanRing::SpanRing(std::size_t capacity)
{
    capacity = std::max<std::size_t>(capacity, 2);
    capacity = std::bit_ceil(capacity);
    slots_.resize(capacity);
    mask_ = capacity - 1;
}

bool
SpanRing::TryPush(const SpanRecord& record)
{
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= slots_.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    slots_[head & mask_] = record;
    head_.store(head + 1, std::memory_order_release);
    return true;
}

std::size_t
SpanRing::DrainInto(std::vector<SpanRecord>& out)
{
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t head = head_.load(std::memory_order_acquire);
    std::size_t n = static_cast<std::size_t>(head - tail);
    for (std::uint64_t i = tail; i != head; ++i) {
        out.push_back(slots_[i & mask_]);
    }
    tail_.store(head, std::memory_order_release);
    return n;
}

/* ---------------------------------------------------------------- */
/* SimClock                                                         */
/* ---------------------------------------------------------------- */

SimTime
SimClock::Now()
{
    return SimTime::Seconds(g_sim_now_s);
}

void
SimClock::Set(SimTime t)
{
    g_sim_now_s = t.seconds();
}

void
SimClock::Advance(SimTime dt)
{
    g_sim_now_s += dt.seconds();
}

/* ---------------------------------------------------------------- */
/* TraceCollector                                                   */
/* ---------------------------------------------------------------- */

TraceCollector&
TraceCollector::Get()
{
    /* Leaked on purpose: emitting threads may outlive main()'s static
     * destruction, and the registry must stay valid for them. */
    static TraceCollector* instance = new TraceCollector();
    return *instance;
}

TraceCollector::TraceCollector() : epoch_(std::chrono::steady_clock::now()) {}

void
TraceCollector::SetEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

std::uint32_t
TraceCollector::NewDomain()
{
    return next_domain_.fetch_add(1, std::memory_order_relaxed);
}

SpanContext
TraceCollector::NewRootContext(std::uint32_t domain)
{
    SpanContext ctx;
    ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
    ctx.span_id = NewSpanId();
    ctx.domain = domain;
    return ctx;
}

std::uint64_t
TraceCollector::NewSpanId()
{
    return next_span_.fetch_add(1, std::memory_order_relaxed);
}

double
TraceCollector::NowWallMicros() const
{
    auto dt = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double, std::micro>(dt).count();
}

SpanRing*
TraceCollector::LocalRing()
{
    /* Retires the thread's ring as the thread exits. It never touches
     * the collector, which a thread exiting after main() must not
     * rely on; the collector's own reference keeps the ring alive
     * until a drain has taken its last spans. */
    struct Holder {
        std::shared_ptr<SpanRing> ring;
        ~Holder() { ring->Retire(); }
    };
    thread_local Holder holder{[this] {
        std::lock_guard<std::mutex> lock(mutex_);
        auto r = std::make_shared<SpanRing>(ring_capacity_);
        rings_.push_back(r);
        return r;
    }()};
    return holder.ring.get();
}

void
TraceCollector::Emit(const SpanRecord& record)
{
    if (!enabled()) return;
    SpanRecord rec = record;
    if (rec.thread_id == 0) rec.thread_id = ThisThreadId();
    LocalRing()->TryPush(rec);
}

SpanContext
TraceCollector::FillAndEmit(SpanRecord& record, StageKind stage,
                            const char* name, SpanContext parent,
                            std::initializer_list<Attr> attrs)
{
    record.stage = stage;
    record.name = name;
    if (parent.valid()) {
        record.trace_id = parent.trace_id;
        record.parent_id = parent.span_id;
        record.domain = parent.domain;
    } else {
        record.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
    }
    record.span_id = NewSpanId();
    for (const Attr& a : attrs) record.AddAttr(a.key, a.value);
    Emit(record);
    return SpanContext{record.trace_id, record.span_id, record.domain};
}

SpanContext
TraceCollector::EmitSim(StageKind stage, const char* name, SpanContext parent,
                        SimTime sim_start, SimTime sim_dur,
                        std::initializer_list<Attr> attrs)
{
    if (!enabled()) return SpanContext{};
    SpanRecord record;
    record.sim_start_s = sim_start.seconds();
    record.sim_dur_s = sim_dur.seconds();
    return FillAndEmit(record, stage, name, parent, attrs);
}

SpanContext
TraceCollector::EmitStage(StageKind stage, const char* name, SimTime dur,
                          std::initializer_list<Attr> attrs)
{
    if (!enabled()) return SpanContext{};
    SimTime start = SimClock::Now();
    SimClock::Advance(dur);
    return EmitSim(stage, name, Current(), start, dur, attrs);
}

SpanContext
TraceCollector::EmitWall(StageKind stage, const char* name, SpanContext parent,
                         double wall_start_us, double wall_dur_us,
                         std::initializer_list<Attr> attrs)
{
    if (!enabled()) return SpanContext{};
    SpanRecord record;
    record.wall_start_us = wall_start_us;
    record.wall_dur_us = wall_dur_us;
    return FillAndEmit(record, stage, name, parent, attrs);
}

std::uint64_t
TraceCollector::AggKey(std::uint32_t domain, StageKind stage)
{
    return static_cast<std::uint64_t>(domain) * kNumStageKinds +
           static_cast<std::uint64_t>(stage);
}

void
TraceCollector::DrainLocked()
{
    drain_scratch_.clear();
    /* A ring seen retired before its drain has no push after it, so
     * this drain is its last: keep its drops and release it. */
    std::erase_if(rings_, [this](const std::shared_ptr<SpanRing>& ring) {
        const bool retired = ring->retired();
        ring->DrainInto(drain_scratch_);
        if (retired) released_dropped_ += ring->dropped();
        return retired;
    });
    for (const SpanRecord& r : drain_scratch_) {
        ++recorded_;
        retained_.push_back(r);
        if (retained_.size() > retained_capacity_) {
            retained_.pop_front();
            ++retained_evicted_;
        }
        StageAgg& agg = agg_[AggKey(r.domain, r.stage)];
        ++agg.count;
        if (r.has_sim()) {
            agg.sim_total_s += r.sim_dur_s;
            agg.sim_us.Add(r.sim_dur_s * 1e6);
        }
        if (r.has_wall()) {
            agg.wall_total_us += r.wall_dur_us;
            agg.wall_us.Add(r.wall_dur_us);
        }
    }
}

void
TraceCollector::Drain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
}

std::vector<SpanRecord>
TraceCollector::Spans()
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
    return std::vector<SpanRecord>(retained_.begin(), retained_.end());
}

std::vector<SpanRecord>
TraceCollector::SpansForDomain(std::uint32_t domain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
    std::vector<SpanRecord> out;
    for (const SpanRecord& r : retained_) {
        if (r.domain == domain) out.push_back(r);
    }
    return out;
}

TraceSummary
TraceCollector::BuildSummaryLocked(bool all_domains, std::uint32_t domain)
{
    /* Merge the per-(domain, stage) aggregates down to per-stage. */
    std::array<StageAgg, kNumStageKinds> merged;
    for (const auto& [key, agg] : agg_) {
        std::uint32_t agg_domain = static_cast<std::uint32_t>(key / kNumStageKinds);
        if (!all_domains && agg_domain != domain) continue;
        StageAgg& m = merged[key % kNumStageKinds];
        m.count += agg.count;
        m.sim_total_s += agg.sim_total_s;
        m.wall_total_us += agg.wall_total_us;
        m.sim_us.Merge(agg.sim_us);
        m.wall_us.Merge(agg.wall_us);
    }

    TraceSummary summary;
    for (int i = 0; i < kNumStageKinds; ++i) {
        const StageAgg& m = merged[i];
        if (m.count == 0) continue;
        StageSummary s;
        s.stage = static_cast<StageKind>(i);
        s.count = m.count;
        s.sim_total = SimTime::Seconds(m.sim_total_s);
        s.wall_total_us = m.wall_total_us;
        s.sim_p50_us = m.sim_us.Quantile(0.50);
        s.sim_p95_us = m.sim_us.Quantile(0.95);
        s.sim_p99_us = m.sim_us.Quantile(0.99);
        s.wall_p50_us = m.wall_us.Quantile(0.50);
        s.wall_p95_us = m.wall_us.Quantile(0.95);
        s.wall_p99_us = m.wall_us.Quantile(0.99);
        summary.stages.push_back(s);
    }
    summary.spans_recorded = recorded_;
    summary.spans_dropped = DroppedLocked();
    return summary;
}

TraceSummary
TraceCollector::Summary()
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
    return BuildSummaryLocked(/*all_domains=*/true, 0);
}

TraceSummary
TraceCollector::SummaryForDomain(std::uint32_t domain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
    return BuildSummaryLocked(/*all_domains=*/false, domain);
}

std::array<SimTime, kNumStageKinds>
TraceCollector::StageSimTotals(std::uint32_t domain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
    std::array<SimTime, kNumStageKinds> totals{};
    for (const auto& [key, agg] : agg_) {
        if (static_cast<std::uint32_t>(key / kNumStageKinds) != domain) continue;
        totals[key % kNumStageKinds] += SimTime::Seconds(agg.sim_total_s);
    }
    return totals;
}

std::uint64_t
TraceCollector::DroppedLocked() const
{
    std::uint64_t dropped = released_dropped_;
    for (const auto& ring : rings_) dropped += ring->dropped();
    return dropped;
}

std::uint64_t
TraceCollector::TotalDropped()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return DroppedLocked();
}

std::size_t
TraceCollector::RingCount()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rings_.size();
}

void
TraceCollector::Clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    DrainLocked();
    retained_.clear();
    agg_.clear();
    recorded_ = 0;
    retained_evicted_ = 0;
    released_dropped_ = 0;
    for (auto& ring : rings_) ring->ResetDropped();
}

void
TraceCollector::SetRingCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_capacity_ = capacity;
}

void
TraceCollector::SetRetainedCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    retained_capacity_ = std::max<std::size_t>(capacity, 1);
}

std::uint64_t
TraceCollector::RetainedEvicted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retained_evicted_;
}

SpanContext
TraceCollector::Current()
{
    if (g_span_stack.empty()) return SpanContext{};
    return g_span_stack.back();
}

/* ---------------------------------------------------------------- */
/* ScopedSpan                                                       */
/* ---------------------------------------------------------------- */

ScopedSpan::ScopedSpan(StageKind stage, const char* name)
{
    Open(stage, name, TraceCollector::Current());
}

ScopedSpan::ScopedSpan(StageKind stage, const char* name, SpanContext parent)
{
    Open(stage, name, parent);
}

void
ScopedSpan::Open(StageKind stage, const char* name, SpanContext parent)
{
    TraceCollector& collector = TraceCollector::Get();
    if (!collector.enabled()) return;
    record_.stage = stage;
    record_.name = name;
    if (parent.valid()) {
        record_.trace_id = parent.trace_id;
        record_.parent_id = parent.span_id;
        record_.domain = parent.domain;
    } else {
        SpanContext root = collector.NewRootContext();
        record_.trace_id = root.trace_id;
        record_.span_id = root.span_id;
    }
    if (record_.span_id == 0) record_.span_id = collector.NewSpanId();
    record_.wall_start_us = collector.NowWallMicros();
    g_span_stack.push_back(context());
    active_ = true;
}

ScopedSpan::~ScopedSpan()
{
    if (!active_) return;
    TraceCollector& collector = TraceCollector::Get();
    record_.wall_dur_us = collector.NowWallMicros() - record_.wall_start_us;
    g_span_stack.pop_back();
    collector.Emit(record_);
}

SpanContext
ScopedSpan::context() const
{
    if (record_.span_id == 0) return SpanContext{};
    return SpanContext{record_.trace_id, record_.span_id, record_.domain};
}

/* ---------------------------------------------------------------- */
/* ScopedParent                                                     */
/* ---------------------------------------------------------------- */

ScopedParent::ScopedParent(SpanContext parent)
{
    if (parent.valid()) {
        g_span_stack.push_back(parent);
        pushed_ = true;
    }
}

ScopedParent::~ScopedParent()
{
    if (pushed_) g_span_stack.pop_back();
}

}  // namespace dbscore::trace

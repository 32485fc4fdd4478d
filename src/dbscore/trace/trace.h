/**
 * @file
 * dbscore::trace — always-on, stage-attributed tracing.
 *
 * The paper's thesis is that accelerator "speedups" evaporate once the
 * full offload pipeline is charged (Figures 6/7/11); this subsystem
 * makes that accounting a first-class, queryable artifact instead of
 * scattered counters. Every span carries the paper's stage taxonomy
 * (StageKind) and *two* clocks: real wall-clock microseconds for
 * functional code (ForestKernel, the serve path) and simulated SimTime
 * for the calibrated cost models, so a single trace can show both what
 * the machine did and what the model charged.
 *
 * Hot-path design: producers write fixed-size SpanRecords into a
 * lock-free single-producer/single-consumer ring per thread — never a
 * lock, never an allocation, never a block; on overflow the record is
 * dropped and counted. The process-wide TraceCollector drains rings on
 * demand, retains a bounded window of raw spans for export, and folds
 * everything into per-(domain, stage) histograms for summaries. A
 * thread that exits marks its ring retired; the next drain takes that
 * ring's last spans, keeps its drop count and releases it, so the
 * rings held are those of live threads.
 *
 * Ids and parenting: span/trace ids come from atomic counters. Within
 * a thread, ScopedSpan maintains an implicit parent stack; across
 * thread hops (pipeline -> dispatcher -> scorer) the producer
 * captures a SpanContext and passes it to the child explicitly (or
 * the receiving thread adopts it as its implicit parent with
 * ScopedParent).
 * Domains partition spans between independent producers (e.g. two
 * ScoringService instances) so per-service summaries don't bleed into
 * each other; domain 0 is the default used by the DBMS pipeline.
 *
 * Tracing is switched off only at run time (TraceCollector::SetEnabled);
 * the wallclock_kernels bench guards the enabled-vs-disabled delta
 * < 3%.
 */
#ifndef DBSCORE_TRACE_TRACE_H
#define DBSCORE_TRACE_TRACE_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "dbscore/common/sim_time.h"
#include "dbscore/trace/histogram.h"

namespace dbscore::trace {

/**
 * Stage taxonomy. The middle block mirrors the paper's figure
 * components exactly: kInvocation/kMarshal/kModelPreproc/kDataPreproc
 * are Figure 11's pipeline stages, kAccelPreproc..kSoftwareOverhead
 * are Figure 6/7's offload breakdown. The serve block (kAdmission..
 * kReply) and kKernel attribute the real-time serving path.
 */
enum class StageKind : std::uint8_t {
    kNone = 0,
    kQuery,             ///< root span: one end-to-end scoring query/request
    kAdmission,         ///< serve: admission-control handoff
    kCoalesce,          ///< serve: waiting for batchmates (and placement)
    kQueueWait,         ///< serve: waiting for the chosen device
    kBatch,             ///< serve: one coalesced dispatch on a scorer thread
    kInvocation,        ///< Fig 11: external process invocation
    kModelPreproc,      ///< Fig 11: model deserialization/compilation
    kDataPreproc,       ///< Fig 11: feature-matrix preparation
    kMarshal,           ///< Fig 11: DBMS<->process data transfer
    kOffload,           ///< grouping span around one engine Score call
    kAccelPreproc,      ///< Fig 6/7: engine-side preprocessing
    kTransferIn,        ///< Fig 6/7: input transfer to the device
    kAccelSetup,        ///< Fig 6/7: accelerator setup
    kScoring,           ///< Fig 6/7: compute
    kCompletionSignal,  ///< Fig 6/7: completion signal
    kTransferOut,       ///< Fig 6/7: result transfer from the device
    kSoftwareOverhead,  ///< Fig 6/7: driver/runtime software overhead
    kKernel,            ///< wall-clock: one ForestKernel batch (or chunk)
    kReply,             ///< serve: reply fulfillment
    kFault,             ///< resilience: one injected fault (wasted time)
    kRetryBackoff,      ///< resilience: backoff delay before a retry
    kFallback,          ///< resilience: batch re-routed to the CPU engine
    kBreaker,           ///< resilience: circuit-breaker state transition
    kPageRead,          ///< storage: one page read from the page file
    kPageWrite,         ///< storage: one page write to the page file
    kBufferPool,        ///< storage: buffer-pool miss (fill + eviction)
    kKernelBuild,       ///< wall-clock: ForestKernel compile
    kPlan,              ///< dbms: parse + plan + rewrite one statement
    kPlanCacheHit,      ///< dbms: plan served from the LRU plan cache
    kRegistryHit,       ///< fleet: model served from the warm registry
    kRegistryEvict,     ///< fleet: model evicted under memory pressure
    kAutoscale,         ///< fleet: worker-pool lane count changed
    kRecovery,          ///< storage: crash recovery on open (rollback/scan)
    kScrub,             ///< storage: online checksum scrub pass
};

inline constexpr int kNumStageKinds = 35;

/** Stable lowercase-dash name, e.g. "queue-wait"; also the Chrome cat. */
const char* StageName(StageKind stage);

/** Which paper figure component the stage maps to ("-" when none). */
const char* StagePaperComponent(StageKind stage);

/**
 * Lightweight handle to a live (or completed) span: enough to parent a
 * child from any thread. Copyable, trivially destructible.
 */
struct SpanContext {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint32_t domain = 0;

    bool valid() const { return span_id != 0; }
};

/** Numeric key/value attribute. Keys must be static strings. */
struct Attr {
    const char* key;
    double value;
};

inline constexpr std::size_t kMaxSpanAttrs = 3;

/**
 * One completed span as written into the ring. Fixed-size and
 * trivially copyable; name/attr keys must point at static storage
 * (string literals) because records outlive the emitting scope.
 * Either clock may be absent: a negative start means "not recorded".
 */
struct SpanRecord {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    const char* name = "";
    StageKind stage = StageKind::kNone;
    std::uint32_t domain = 0;
    std::uint32_t thread_id = 0;
    double wall_start_us = -1.0;
    double wall_dur_us = 0.0;
    double sim_start_s = -1.0;
    double sim_dur_s = 0.0;
    std::uint32_t num_attrs = 0;
    Attr attrs[kMaxSpanAttrs] = {};

    bool has_wall() const { return wall_start_us >= 0.0; }
    bool has_sim() const { return sim_start_s >= 0.0; }

    /** Silently ignored once kMaxSpanAttrs are set. */
    void
    AddAttr(const char* key, double value)
    {
        if (num_attrs < kMaxSpanAttrs) attrs[num_attrs++] = Attr{key, value};
    }
};

/**
 * Fixed-capacity single-producer/single-consumer ring of SpanRecords.
 * The owning thread pushes; the collector (under its own mutex, so one
 * consumer at a time) drains. TryPush never blocks: a full ring counts
 * the record as dropped and returns false. The owning thread retires
 * the ring as it exits and pushes nothing after.
 */
class SpanRing {
 public:
    /** @p capacity is rounded up to a power of two. */
    explicit SpanRing(std::size_t capacity);

    bool TryPush(const SpanRecord& record);

    /** Appends all pending records to @p out; returns how many. */
    std::size_t DrainInto(std::vector<SpanRecord>& out);

    std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
    void ResetDropped() { dropped_.store(0, std::memory_order_relaxed); }
    std::size_t capacity() const { return slots_.size(); }

    /** The producer's last act: publishes every push and drop before it. */
    void Retire() { retired_.store(true, std::memory_order_release); }
    /** True once Retire() ran; a drain after this sees every push. */
    bool retired() const { return retired_.load(std::memory_order_acquire); }

 private:
    std::vector<SpanRecord> slots_;
    std::size_t mask_;
    std::atomic<std::uint64_t> head_{0};  ///< next write (producer-owned)
    std::atomic<std::uint64_t> tail_{0};  ///< next read (consumer-owned)
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<bool> retired_{false};
};

/** Aggregated view of one stage within a TraceSummary. */
struct StageSummary {
    StageKind stage = StageKind::kNone;
    std::size_t count = 0;
    SimTime sim_total;
    double wall_total_us = 0.0;
    /** Percentiles over per-span sim durations, microseconds. */
    double sim_p50_us = 0.0;
    double sim_p95_us = 0.0;
    double sim_p99_us = 0.0;
    /** Percentiles over per-span wall durations, microseconds. */
    double wall_p50_us = 0.0;
    double wall_p95_us = 0.0;
    double wall_p99_us = 0.0;
};

/** Answer to "where did the microseconds go?" for one domain (or all). */
struct TraceSummary {
    std::vector<StageSummary> stages;  ///< enum order, zero-count omitted
    std::uint64_t spans_recorded = 0;  ///< drained into the collector
    std::uint64_t spans_dropped = 0;   ///< lost to ring overflow
};

/**
 * Per-thread simulated-time cursor used by code that emits a *chain*
 * of modeled stages (the pipeline, the serve batch executor): Set() at
 * the chain's origin, then each EmitStage() advances it by the stage's
 * duration so successive spans abut on the simulated timeline.
 */
class SimClock {
 public:
    static SimTime Now();
    static void Set(SimTime t);
    static void Advance(SimTime dt);
};

/**
 * Process-wide collector: owns the ring registry, id generators, the
 * bounded retained-span window, and per-(domain, stage) aggregation.
 * Emission is lock-free; Drain()/Summary()/Spans() serialize on an
 * internal mutex and are safe from any thread.
 */
class TraceCollector {
 public:
    static TraceCollector& Get();

    /**
     * Runtime kill switch. Disabling makes ScopedSpan inert and Emit a
     * no-op; used by the overhead guard bench.
     */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void SetEnabled(bool enabled);

    /** A fresh domain id for an independent producer (never 0). */
    std::uint32_t NewDomain();

    /** A root context (new trace id, new span id) in @p domain. */
    SpanContext NewRootContext(std::uint32_t domain = 0);

    std::uint64_t NewSpanId();

    /** Monotonic wall clock, microseconds since collector start. */
    double NowWallMicros() const;

    /** Queues @p record on the calling thread's ring (never blocks). */
    void Emit(const SpanRecord& record);

    /**
     * Emits a simulated-duration span at an explicit position on the
     * simulated timeline, parented to @p parent (which also supplies
     * the domain). Returns the new span's context.
     */
    SpanContext EmitSim(StageKind stage, const char* name, SpanContext parent,
                        SimTime sim_start, SimTime sim_dur,
                        std::initializer_list<Attr> attrs = {});

    /**
     * Chain form: position = the thread's SimClock, parent = the
     * thread's current ScopedSpan; advances the SimClock by @p dur.
     */
    SpanContext EmitStage(StageKind stage, const char* name, SimTime dur,
                          std::initializer_list<Attr> attrs = {});

    /** Emits a wall-clock-only span (start/duration in microseconds). */
    SpanContext EmitWall(StageKind stage, const char* name, SpanContext parent,
                         double wall_start_us, double wall_dur_us,
                         std::initializer_list<Attr> attrs = {});

    /** Pulls every ring into the retained window + aggregates. */
    void Drain();

    /** Drains, then snapshots the retained spans (all domains). */
    std::vector<SpanRecord> Spans();
    std::vector<SpanRecord> SpansForDomain(std::uint32_t domain);

    /** Drains, then aggregates; all domains merged. */
    TraceSummary Summary();
    TraceSummary SummaryForDomain(std::uint32_t domain);

    /**
     * Drains, then returns the summed simulated duration per stage for
     * @p domain — the single source of truth behind
     * serve::StageTotals and the fig11 consistency check.
     */
    std::array<SimTime, kNumStageKinds> StageSimTotals(std::uint32_t domain);

    /**
     * Ring-overflow drops across all threads since the last Clear,
     * exited threads included.
     */
    std::uint64_t TotalDropped();

    /**
     * Rings held: one per thread that has emitted and is alive, plus
     * those of exited threads until the next drain (tests only).
     */
    std::size_t RingCount();

    /** Drops retained spans, aggregates, and drop/evict counters. */
    void Clear();

    /** Capacity for rings created after this call (tests only). */
    void SetRingCapacity(std::size_t capacity);
    /** Bound on the retained raw-span window (oldest evicted first). */
    void SetRetainedCapacity(std::size_t capacity);
    std::uint64_t RetainedEvicted();

    /** The calling thread's innermost live ScopedSpan (if any). */
    static SpanContext Current();

 private:
    friend class ScopedSpan;

    struct StageAgg {
        std::size_t count = 0;
        double sim_total_s = 0.0;
        double wall_total_us = 0.0;
        Histogram sim_us;
        Histogram wall_us;
    };

    TraceCollector();

    SpanRing* LocalRing();
    void DrainLocked();
    std::uint64_t DroppedLocked() const;
    TraceSummary BuildSummaryLocked(bool all_domains, std::uint32_t domain);
    static std::uint64_t AggKey(std::uint32_t domain, StageKind stage);
    SpanContext FillAndEmit(SpanRecord& record, StageKind stage,
                            const char* name, SpanContext parent,
                            std::initializer_list<Attr> attrs);

    std::atomic<bool> enabled_{true};
    std::atomic<std::uint64_t> next_trace_{1};
    std::atomic<std::uint64_t> next_span_{1};
    std::atomic<std::uint32_t> next_domain_{1};
    std::chrono::steady_clock::time_point epoch_;

    std::mutex mutex_;
    std::vector<std::shared_ptr<SpanRing>> rings_;
    /** Drops of the retired rings released since the last Clear. */
    std::uint64_t released_dropped_ = 0;
    std::size_t ring_capacity_ = 2048;
    std::vector<SpanRecord> drain_scratch_;
    std::deque<SpanRecord> retained_;
    std::size_t retained_capacity_ = 1 << 16;
    std::uint64_t retained_evicted_ = 0;
    std::uint64_t recorded_ = 0;
    std::map<std::uint64_t, StageAgg> agg_;
};

/**
 * RAII span: opens on construction, emits on destruction with the
 * measured wall duration. While live it is the thread's Current()
 * span, so nested ScopedSpans and EmitStage calls parent to it
 * implicitly. Use the explicit-parent constructor when the span's
 * logical parent lives on another thread. SetSim attaches a simulated
 * position/duration alongside the measured wall clock.
 */
class ScopedSpan {
 public:
    ScopedSpan(StageKind stage, const char* name);
    ScopedSpan(StageKind stage, const char* name, SpanContext parent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Invalid when the collector is disabled. */
    SpanContext context() const;

    void
    AddAttr(const char* key, double value)
    {
        if (active_) record_.AddAttr(key, value);
    }

    void
    SetSim(SimTime sim_start, SimTime sim_dur)
    {
        record_.sim_start_s = sim_start.seconds();
        record_.sim_dur_s = sim_dur.seconds();
    }

 private:
    void Open(StageKind stage, const char* name, SpanContext parent);

    SpanRecord record_;
    bool active_ = false;
};

/**
 * Makes @p parent the calling thread's Current() span while the guard
 * lives, without opening a span of its own: work handed to a pool
 * thread then parents its spans as it would on the thread that handed
 * it over. An invalid @p parent changes nothing.
 */
class ScopedParent {
 public:
    explicit ScopedParent(SpanContext parent);
    ~ScopedParent();

    ScopedParent(const ScopedParent&) = delete;
    ScopedParent& operator=(const ScopedParent&) = delete;

 private:
    bool pushed_ = false;
};

}  // namespace dbscore::trace

#endif  // DBSCORE_TRACE_TRACE_H

/**
 * @file
 * The external script runtime: our stand-in for SQL Server's
 * sp_execute_external_script Python launchpad.
 *
 * The paper's Figure 11 identifies the application-pipeline overheads that
 * prior accelerator work ignored: launching the external Python process,
 * transparently copying data between the DBMS and that process, and the
 * model/data pre-processing done inside the script. This class models each
 * with explicit, perturbable costs; scripts themselves are C++ callables
 * executed in-process (the language is irrelevant — the stage costs are
 * the object of study).
 */
#ifndef DBSCORE_DBMS_EXTERNAL_RUNTIME_H
#define DBSCORE_DBMS_EXTERNAL_RUNTIME_H

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "dbscore/common/sim_time.h"
#include "dbscore/data/row_block.h"

namespace dbscore {

/** Pipeline-overhead cost parameters. */
struct ExternalRuntimeParams {
    /** First invocation: spawn the Python process, import libraries. */
    SimTime cold_invocation = SimTime::Millis(350.0);
    /** Re-use of a pooled warm process. */
    SimTime warm_invocation = SimTime::Millis(60.0);
    /**
     * DBMS <-> external process data channel throughput. Row data is
     * serialized through a local channel, far slower than a memcpy —
     * this is the paper's "data transfer time" that dominates once
     * scoring is accelerated.
     */
    double channel_bytes_per_second = 600e6;
    /** Fixed model deserialization cost. */
    SimTime model_deser_fixed = SimTime::Millis(2.0);
    /** Model deserialization throughput (bytes/s). */
    double model_deser_bytes_per_second = 100e6;
    /** Per-feature-value cost of preparing the scoring matrix. */
    double data_preproc_ns_per_value = 8.0;
    /**
     * Pool-recycling hook: after this many invocations the warm process
     * pool is torn down and the next invocation pays the cold cost again
     * (SQL Server recycles pooled satellite processes under memory
     * pressure and resource-governor limits). 0 disables recycling.
     */
    std::size_t pool_recycle_every = 0;
};

/** One invocation's cost, with the warm/cold decision made explicit. */
struct InvocationCost {
    SimTime cost;
    bool cold = false;
    /**
     * The process died during this invocation (injected
     * fault::FaultSite::kExternalInvoke). The launch cost was still
     * paid but no results were produced; the pool is dead and the next
     * invocation re-pays the cold start.
     */
    bool crashed = false;
};

/**
 * Stage-cost model of one external runtime.
 *
 * Thread-safety: one instance models exactly one warm-process pool, and
 * its warm/cold invocation state is guarded by an internal mutex, so
 * concurrent Invoke()/ResetPool() calls are safe and every invocation is
 * attributed exactly once (exactly one caller observes each cold start).
 * The pure cost functions (TransferToProcess, TransferFromProcess, and
 * the preprocessing estimators) are const and stateless. Components
 * that want independent pools — e.g. serve::DeviceLanes, one per
 * device class — should each own their own instance.
 */
class ExternalScriptRuntime {
 public:
    explicit ExternalScriptRuntime(const ExternalRuntimeParams& params);

    const ExternalRuntimeParams& params() const { return params_; }

    /**
     * Cost of invoking the external process. The first call is cold;
     * later calls hit the warm pool until ResetPool() or until the
     * pool_recycle_every hook forces a recycle. When the fault injector
     * fires at kExternalInvoke the invocation comes back with
     * crashed = true and the pool is marked dead — the crash is a
     * return flag, not an exception, so cost-model callers that predate
     * fault injection keep summing costs unchanged.
     */
    InvocationCost Invoke();

    /** Invoke() for callers that only need the cost. */
    SimTime InvokeProcess() { return Invoke().cost; }

    /** True if the next invocation will be warm. */
    bool warm() const;

    /** Simulates recycling the process pool (next invocation is cold). */
    void ResetPool();

    /**
     * Models an out-of-band process crash: the pool is dead and the
     * next invocation re-pays the cold start. Unlike ResetPool this
     * counts as a crash in the accounting.
     */
    void CrashProcess();

    /** Total invocations served by this runtime instance. */
    std::size_t invocations() const;

    /** Invocations that paid the cold-start cost. */
    std::size_t cold_invocations() const;

    /** Invocations (plus CrashProcess calls) that killed the pool. */
    std::size_t crashes() const;

    /** DBMS -> process copy of @p bytes. */
    SimTime TransferToProcess(std::uint64_t bytes) const;

    /**
     * DBMS -> process marshal of @p view. Charges the view's actual
     * float32 payload size (rows * cols * 4); the view itself passes
     * through by reference — the host performs no copy.
     */
    SimTime TransferToProcess(const RowView& view) const;

    /** process -> DBMS copy of @p bytes. */
    SimTime TransferFromProcess(std::uint64_t bytes) const;

    /** Model pre-processing: deserializing a @p blob_bytes model. */
    SimTime ModelPreprocessing(std::uint64_t blob_bytes) const;

    /** Data pre-processing: preparing a rows x cols scoring matrix. */
    SimTime DataPreprocessing(std::uint64_t rows, std::uint64_t cols) const;

 private:
    ExternalRuntimeParams params_;
    mutable std::mutex mutex_;
    bool warm_ = false;
    std::size_t invocations_ = 0;
    std::size_t cold_invocations_ = 0;
    std::size_t crashes_ = 0;
    /** Invocations since the pool last went cold (recycling hook). */
    std::size_t since_recycle_ = 0;
};

}  // namespace dbscore

#endif  // DBSCORE_DBMS_EXTERNAL_RUNTIME_H

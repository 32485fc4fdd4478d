#include "dbscore/serve/device_lanes.h"

#include <algorithm>
#include <cmath>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/fault/fault.h"

namespace dbscore::serve {

using trace::StageKind;
using trace::TraceCollector;

namespace {

/** Backoff growth per additional retry. */
constexpr double kBackoffMultiplier = 2.0;
/** Jitter adds a uniform draw in [0, kJitterFrac) of the backoff. */
constexpr double kJitterFrac = 0.2;
/** Seed of every device's jitter stream. */
constexpr std::uint64_t kJitterSeed = 0x7e57;

/**
 * Modeled engine time a faulted offload attempt consumed: every
 * breakdown component completed before the site that failed.
 * @p site_index is the position in OffloadFaultSites(kind) — FPGA
 * crosses {DMA-in, setup, completion, DMA-out}, GPU crosses
 * {DMA-in, launch, DMA-out}.
 */
SimTime
FaultedOffloadCost(const OffloadBreakdown& b, DeviceClass device_class,
                   std::size_t site_index)
{
    SimTime t = b.preprocessing + b.input_transfer;
    if (site_index == 0) {
        return t;  // the inbound DMA itself failed
    }
    t += b.setup;
    if (site_index == 1) {
        return t;  // setup / kernel launch failed
    }
    t += b.compute + b.completion_signal;
    if (device_class == DeviceClass::kFpga && site_index == 2) {
        return t;  // completion interrupt lost after a full run
    }
    return t + b.result_transfer;  // the outbound DMA failed
}

}  // namespace

const char*
BreakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::kClosed: return "closed";
      case BreakerState::kOpen: return "open";
      case BreakerState::kHalfOpen: return "half-open";
    }
    return "?";
}

DeviceLanes::DeviceLanes(std::size_t lanes)
{
    DBS_ASSERT(lanes > 0);
    for (Device& d : devices_) {
        d.lanes.assign(lanes, SimTime());
        d.runtime =
            std::make_unique<ExternalScriptRuntime>(ExternalRuntimeParams{});
    }
}

LaneSlot
DeviceLanes::EarliestLocked(const Device& device)
{
    const auto it = std::min_element(device.lanes.begin(), device.lanes.end());
    return {static_cast<std::size_t>(it - device.lanes.begin()), *it};
}

void
DeviceLanes::ChargeLocked(Device& device, std::size_t lane, SimTime until)
{
    // The autoscaler may have retired the lane since it was taken.
    if (lane < device.lanes.size()) {
        device.lanes[lane] = Max(device.lanes[lane], until);
    }
}

std::optional<LaneSlot>
DeviceLanes::Admit(DeviceClass device, SimTime ready,
                   const trace::SpanContext& parent)
{
    Device& dev = At(device);
    bool probe = false;
    LaneSlot slot;
    {
        std::lock_guard<std::mutex> lock(dev.mutex);
        if (device != DeviceClass::kCpu &&
            dev.counters.breaker == BreakerState::kOpen) {
            if (ready < dev.breaker_open_until) {
                return std::nullopt;
            }
            dev.counters.breaker = BreakerState::kHalfOpen;
            probe = true;
        }
        slot = EarliestLocked(dev);
    }
    if (probe) {
        TraceCollector::Get().EmitSim(
            StageKind::kBreaker, "breaker-half-open", parent, ready,
            SimTime(),
            {{"device", static_cast<double>(device)},
             {"state", static_cast<double>(BreakerState::kHalfOpen)}});
    }
    return slot;
}

void
DeviceLanes::Reserve(LaneRun& run, SimTime ready)
{
    Device& dev = At(run.device);
    run.cost.invocation = dev.runtime->Invoke();
    std::lock_guard<std::mutex> lock(dev.mutex);
    const LaneSlot slot = EarliestLocked(dev);
    run.lane = slot.lane;
    run.now = Max(ready, slot.at);
}

void
DeviceLanes::ResizeLanes(DeviceClass device, std::size_t lanes)
{
    DBS_ASSERT(lanes > 0);
    Device& dev = At(device);
    std::lock_guard<std::mutex> lock(dev.mutex);
    if (lanes > dev.lanes.size()) {
        dev.lanes.resize(lanes, EarliestLocked(dev).at);
    } else {
        std::sort(dev.lanes.begin(), dev.lanes.end());
        dev.lanes.resize(lanes);
    }
}

std::size_t
DeviceLanes::Lanes(DeviceClass device) const
{
    const Device& dev = At(device);
    std::lock_guard<std::mutex> lock(dev.mutex);
    return dev.lanes.size();
}

AttemptCost
DeviceLanes::Price(InvocationCost invocation, DeviceClass device,
                   BackendKind kind, const LaneModel& model,
                   std::size_t rows, std::size_t marshaled_rows) const
{
    const auto marshaled = static_cast<std::uint64_t>(marshaled_rows);
    const ExternalScriptRuntime& runtime = *At(device).runtime;
    AttemptCost c;
    c.invocation = invocation;
    c.model_pre = c.invocation.cold
                      ? runtime.ModelPreprocessing(model.model_bytes)
                      : SimTime();
    c.transfer_to = runtime.TransferToProcess(marshaled * model.num_cols *
                                              sizeof(float));
    c.transfer_from = runtime.TransferFromProcess(marshaled * sizeof(float));
    c.data_pre = runtime.DataPreprocessing(rows, model.num_cols);
    c.scoring = model.scheduler->EstimateFor(kind, rows);
    return c;
}

SimTime
DeviceLanes::NextBackoff(DeviceClass device, std::size_t retry_index)
{
    DBS_ASSERT(retry_index >= 1);
    double backoff_s =
        kInitialBackoff.seconds() *
        std::pow(kBackoffMultiplier, static_cast<double>(retry_index - 1));
    std::uint64_t seq;
    {
        Device& dev = At(device);
        std::lock_guard<std::mutex> lock(dev.mutex);
        seq = dev.attempt_seq++;
    }
    // One draw from a stream keyed by (seed, device, sequence): a
    // replayed run re-draws identical jitter. The SplitMix64 seeding
    // inside Rng decorrelates the nearby keys.
    Rng jitter(kJitterSeed ^
               (0x9e3779b97f4a7c15ULL *
                (static_cast<std::uint64_t>(device) + 1)) ^
               (0xbf58476d1ce4e5b9ULL * (seq + 1)));
    backoff_s += backoff_s * kJitterFrac * jitter.NextDouble();
    return SimTime::Seconds(backoff_s);
}

/** Counts one faulted attempt and steps the breaker. */
void
DeviceLanes::OnFault(DeviceClass device, SimTime wasted, SimTime now,
                     const trace::SpanContext& parent)
{
    Device& dev = At(device);
    bool opened = false;
    {
        std::lock_guard<std::mutex> lock(dev.mutex);
        ++dev.counters.faults;
        dev.counters.fault_wasted += wasted;
        ++dev.consecutive_failures;
        // A failed probe re-opens at once; a closed breaker opens at
        // the threshold. An open one (a dispatch admitted before it
        // opened) keeps its cooldown.
        const BreakerState state = dev.counters.breaker;
        if (state == BreakerState::kHalfOpen ||
            (state == BreakerState::kClosed &&
             dev.consecutive_failures >= kBreakerThreshold)) {
            dev.counters.breaker = BreakerState::kOpen;
            dev.breaker_open_until = now + kBreakerCooldown;
            ++dev.counters.breaker_opens;
            opened = true;
        }
    }
    if (opened) {
        TraceCollector::Get().EmitSim(
            StageKind::kBreaker, "breaker-open", parent, now, SimTime(),
            {{"device", static_cast<double>(device)},
             {"state", static_cast<double>(BreakerState::kOpen)}});
    }
}

/** Charges @p lane through @p finish and closes the breaker. */
void
DeviceLanes::OnSuccess(DeviceClass device, std::size_t lane, SimTime finish,
                       const trace::SpanContext& parent)
{
    Device& dev = At(device);
    BreakerState before;
    {
        std::lock_guard<std::mutex> lock(dev.mutex);
        ChargeLocked(dev, lane, finish);
        dev.consecutive_failures = 0;
        before = dev.counters.breaker;
        dev.counters.breaker = BreakerState::kClosed;
    }
    if (before != BreakerState::kClosed) {
        TraceCollector::Get().EmitSim(
            StageKind::kBreaker, "breaker-close", parent, finish, SimTime(),
            {{"device", static_cast<double>(device)},
             {"state", static_cast<double>(BreakerState::kClosed)}});
    }
}

void
DeviceLanes::Run(const LaneModel& model, LaneRun& run,
                 const trace::SpanContext& parent, const DropPastDeadline& drop)
{
    TraceCollector& tracer = TraceCollector::Get();
    fault::FaultInjector& injector = fault::FaultInjector::Get();
    // Every attempt marshals the rows the dispatch started with.
    const std::size_t marshaled_rows = run.rows;
    std::size_t device_attempts = 0;
    run.completed = false;
    // The reserved first attempt holds its lane through its projected
    // finish, whatever becomes of it.
    run.cost = Price(run.cost.invocation, run.device, run.kind, model,
                     run.rows, marshaled_rows);
    {
        Device& dev = At(run.device);
        std::lock_guard<std::mutex> lock(dev.mutex);
        ChargeLocked(dev, run.lane, run.now + run.cost.Total());
    }

    for (;;) {
        ++run.attempts;
        ++device_attempts;
        if (run.attempts > 1) {
            run.cost = Price(At(run.device).runtime->Invoke(), run.device,
                             run.kind, model, run.rows, marshaled_rows);
        }
        const AttemptCost& c = run.cost;

        // This attempt's fate: the external process can crash during
        // invocation; otherwise the offload crosses its hardware fault
        // sites in operation order. EstimateFor stays pure, so the
        // dispatch consumes the same per-site fault stream a functional
        // engine Score would.
        bool faulted = c.invocation.crashed;
        fault::FaultSite fault_site = fault::FaultSite::kExternalInvoke;
        SimTime wasted = c.invocation.cost;
        if (!faulted) {
            const auto sites = OffloadFaultSites(run.kind);
            for (std::size_t i = 0; i < sites.size(); ++i) {
                if (injector.ShouldFail(sites[i])) {
                    faulted = true;
                    fault_site = sites[i];
                    wasted = c.invocation.cost + c.model_pre +
                             c.transfer_to + c.data_pre +
                             FaultedOffloadCost(c.scoring, run.device, i);
                    break;
                }
            }
        }
        if (!faulted) {
            OnSuccess(run.device, run.lane, run.now + c.Total(),
                      parent);
            run.completed = true;
            return;
        }

        tracer.EmitSim(StageKind::kFault, fault::FaultSiteName(fault_site),
                       parent, run.now, wasted,
                       {{"device", static_cast<double>(run.device)},
                        {"attempt", static_cast<double>(run.attempts)}});
        run.now += wasted;
        OnFault(run.device, wasted, run.now, parent);

        if (device_attempts < kMaxAttempts) {
            // Retry on the same device after backoff — but never
            // dispatch a rider past its deadline: those fail now
            // instead of riding a retry they could never use.
            const SimTime backoff = NextBackoff(run.device, device_attempts);
            const SimTime redispatch = run.now + backoff;
            run.rows = drop(redispatch, run);
            if (run.rows == 0) {
                break;
            }
            tracer.EmitSim(StageKind::kRetryBackoff, "retry-backoff",
                           parent, run.now, backoff,
                           {{"attempt", static_cast<double>(run.attempts)}});
            {
                Device& dev = At(run.device);
                std::lock_guard<std::mutex> lock(dev.mutex);
                ++dev.counters.retries;
                dev.counters.retry_backoff += backoff;
            }
            run.now = redispatch;
            continue;
        }

        if (run.device != DeviceClass::kCpu) {
            // Graceful degradation: release the accelerator lane (it
            // burned the attempts up to now) and hand the dispatch to
            // the CPU's earliest lane with a fresh attempt budget.
            const DeviceClass from = run.device;
            {
                Device& dev = At(from);
                std::lock_guard<std::mutex> lock(dev.mutex);
                ChargeLocked(dev, run.lane, run.now);
                ++dev.counters.fallbacks;
            }
            const auto cpu_best =
                BestOfClass(*model.scheduler, DeviceClass::kCpu, run.rows);
            DBS_ASSERT(cpu_best.has_value());
            run.device = DeviceClass::kCpu;
            run.kind = cpu_best->kind;
            run.degraded = true;
            device_attempts = 0;
            {
                const Device& cpu = At(DeviceClass::kCpu);
                std::lock_guard<std::mutex> lock(cpu.mutex);
                const LaneSlot slot = EarliestLocked(cpu);
                run.lane = slot.lane;
                run.now = Max(run.now, slot.at);
            }
            tracer.EmitSim(StageKind::kFallback, "cpu-fallback",
                           parent, run.now, SimTime(),
                           {{"from", static_cast<double>(from)}});
            continue;
        }

        // The CPU spent its own attempts: nothing is left to degrade to.
        break;
    }

    Device& dev = At(run.device);
    std::lock_guard<std::mutex> lock(dev.mutex);
    ChargeLocked(dev, run.lane, run.now);
}

std::array<LaneCounters, 3>
DeviceLanes::Counters() const
{
    std::array<LaneCounters, 3> out;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        std::lock_guard<std::mutex> lock(devices_[d].mutex);
        out[d] = devices_[d].counters;
    }
    return out;
}

void
DeviceLanes::ResetCounters()
{
    for (Device& d : devices_) {
        std::lock_guard<std::mutex> lock(d.mutex);
        LaneCounters fresh;
        fresh.breaker = d.counters.breaker;
        d.counters = fresh;
    }
}

}  // namespace dbscore::serve

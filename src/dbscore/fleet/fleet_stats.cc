#include "dbscore/fleet/fleet_stats.h"

#include <sstream>

#include "dbscore/common/string_util.h"

namespace dbscore::fleet {

namespace {

int
Idx(SloClass cls)
{
    return static_cast<int>(cls);
}

int
Idx(DeviceClass device)
{
    return static_cast<int>(device);
}

}  // namespace

double
ClassSnapshot::MissRate() const
{
    return completed == 0 ? 0.0
                          : static_cast<double>(deadline_misses) /
                                static_cast<double>(completed);
}

std::size_t
ClassSnapshot::Goodput() const
{
    return completed - deadline_misses;
}

std::size_t
FleetSnapshot::Submitted() const
{
    std::size_t n = 0;
    for (const ClassSnapshot& c : classes) {
        n += c.submitted;
    }
    return n;
}

std::size_t
FleetSnapshot::Completed() const
{
    std::size_t n = 0;
    for (const ClassSnapshot& c : classes) {
        n += c.completed;
    }
    return n;
}

std::size_t
FleetSnapshot::Settled() const
{
    std::size_t n = 0;
    for (const ClassSnapshot& c : classes) {
        n += c.completed + c.rejected_quota + c.rejected_capacity +
             c.expired + c.failed;
    }
    return n;
}

SimTime
FleetSnapshot::Makespan() const
{
    if (last_finish <= first_arrival) {
        return SimTime();
    }
    return last_finish - first_arrival;
}

double
FleetSnapshot::GoodputRps() const
{
    const SimTime span = Makespan();
    if (span.is_zero()) {
        return 0.0;
    }
    std::size_t good = 0;
    for (const ClassSnapshot& c : classes) {
        good += c.Goodput();
    }
    return static_cast<double>(good) / span.seconds();
}

std::string
FleetSnapshot::ToString() const
{
    std::ostringstream os;
    os << StrFormat("fleet:    %zu tenants, %zu models (%zu resident, ",
                    tenants, models, registry.resident_models)
       << StrFormat("%.1f MiB of %.1f MiB), registry hit rate %.3f\n",
                    static_cast<double>(registry.resident_bytes) /
                        (1024.0 * 1024.0),
                    static_cast<double>(registry.memory_budget_bytes) /
                        (1024.0 * 1024.0),
                    registry.HitRate());
    os << StrFormat(
        "registry: %zu hits, %zu misses, %zu rebuilds, %zu evictions, "
        "modeled build ",
        registry.hits, registry.misses, registry.rebuilds,
        registry.evictions)
       << registry.build_cost_total
       << StrFormat(", wall build %.3f ms\n", registry.build_wall_ms_total);
    for (int c = 0; c < kNumSloClasses; ++c) {
        const ClassSnapshot& cls = classes[c];
        if (cls.submitted == 0) {
            continue;
        }
        os << StrFormat(
            "%-7s:  %zu submitted, %zu admitted, %zu completed "
            "(%zu degraded), %zu+%zu rejected (quota+capacity), "
            "%zu expired, %zu failed, miss rate %.3f, ",
            SloClassName(static_cast<SloClass>(c)), cls.submitted,
            cls.admitted, cls.completed, cls.degraded, cls.rejected_quota,
            cls.rejected_capacity, cls.expired, cls.failed, cls.MissRate());
        os << "p50 " << SimTime::Seconds(cls.latency.p50) << ", p99 "
           << SimTime::Seconds(cls.latency.p99) << "\n";
    }
    static const char* kDeviceNames[3] = {"CPU", "GPU", "FPGA"};
    for (int d = 0; d < 3; ++d) {
        const FleetDeviceSnapshot& dev = devices[d];
        if (dev.dispatches == 0 && dev.faults == 0) {
            continue;
        }
        os << StrFormat(
            "%-7s:  %zu dispatches, %zu requests, %zu rows, %zu lanes "
            "(+%zu/-%zu), busy ",
            kDeviceNames[d], dev.dispatches, dev.requests, dev.rows,
            dev.lanes, dev.scale_ups, dev.scale_downs)
           << dev.busy;
        if (dev.faults + dev.fallbacks + dev.breaker_opens > 0) {
            os << StrFormat(
                ", %zu faults, %zu retries, %zu fallbacks, "
                "%zu breaker opens, breaker %s",
                dev.faults, dev.retries, dev.fallbacks, dev.breaker_opens,
                serve::BreakerStateName(dev.breaker));
        }
        os << "\n";
    }
    os << StrFormat("goodput:  %.1f within-deadline req/s over makespan ",
                    GoodputRps())
       << Makespan() << "\n";
    return os.str();
}

void
FleetStats::TouchSpanLocked(SimTime arrival, SimTime finish)
{
    if (!any_arrival_ || arrival < totals_.first_arrival) {
        totals_.first_arrival = arrival;
        any_arrival_ = true;
    }
    if (finish > totals_.last_finish) {
        totals_.last_finish = finish;
    }
}

void
FleetStats::RecordSubmitted(SloClass cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[Idx(cls)].totals.submitted;
}

void
FleetStats::RecordAdmitted(SloClass cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[Idx(cls)].totals.admitted;
}

void
FleetStats::RecordRejectedQuota(SloClass cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[Idx(cls)].totals.rejected_quota;
}

void
FleetStats::RecordRejectedCapacity(SloClass cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[Idx(cls)].totals.rejected_capacity;
}

void
FleetStats::RecordExpired(SloClass cls, SimTime arrival, SimTime finish)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[Idx(cls)].totals.expired;
    TouchSpanLocked(arrival, finish);
}

void
FleetStats::RecordFailed(SloClass cls, SimTime arrival, SimTime finish)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[Idx(cls)].totals.failed;
    TouchSpanLocked(arrival, finish);
}

void
FleetStats::RecordCompleted(SloClass cls, SimTime arrival, SimTime finish,
                            bool degraded, bool deadline_miss)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClassAccum& accum = classes_[Idx(cls)];
    ++accum.totals.completed;
    if (degraded) {
        ++accum.totals.degraded;
    }
    if (deadline_miss) {
        ++accum.totals.deadline_misses;
    }
    const double latency = (finish - arrival).seconds();
    accum.latency.Add(latency);
    TouchSpanLocked(arrival, finish);
}

void
FleetStats::RecordDispatch(DeviceClass device, std::size_t num_requests,
                           std::size_t num_rows, SimTime busy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FleetDeviceSnapshot& dev = totals_.devices[Idx(device)];
    ++dev.dispatches;
    dev.requests += num_requests;
    dev.rows += num_rows;
    dev.busy = dev.busy + busy;
}

void
FleetStats::SetLanes(DeviceClass device, std::size_t lanes, int delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FleetDeviceSnapshot& dev = totals_.devices[Idx(device)];
    dev.lanes = lanes;
    if (delta > 0) {
        ++dev.scale_ups;
    } else if (delta < 0) {
        ++dev.scale_downs;
    }
}

std::size_t
FleetStats::Settled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const ClassAccum& accum : classes_) {
        const ClassSnapshot& c = accum.totals;
        n += c.completed + c.rejected_quota + c.rejected_capacity +
             c.expired + c.failed;
    }
    return n;
}

FleetSnapshot
FleetStats::Snapshot(const serve::DeviceLanes& lanes) const
{
    const std::array<serve::LaneCounters, 3> counters = lanes.Counters();
    std::lock_guard<std::mutex> lock(mutex_);
    FleetSnapshot snap = totals_;
    for (int c = 0; c < kNumSloClasses; ++c) {
        snap.classes[c] = classes_[c].totals;
        snap.classes[c].latency = classes_[c].latency.Summary();
    }
    for (int d = 0; d < 3; ++d) {
        FleetDeviceSnapshot& dev = snap.devices[d];
        dev.faults = counters[d].faults;
        dev.retries = counters[d].retries;
        dev.fallbacks = counters[d].fallbacks;
        dev.breaker_opens = counters[d].breaker_opens;
        dev.breaker = counters[d].breaker;
    }
    return snap;
}

void
FleetStats::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    FleetSnapshot fresh;
    // Preserve lane counts — they describe the present, not
    // accumulated history.
    for (int d = 0; d < 3; ++d) {
        fresh.devices[d].lanes = totals_.devices[d].lanes;
    }
    fresh.tenants = totals_.tenants;
    fresh.models = totals_.models;
    totals_ = fresh;
    for (ClassAccum& accum : classes_) {
        accum = ClassAccum();
    }
    any_arrival_ = false;
}

}  // namespace dbscore::fleet

#include "dbscore/fleet/fleet_stats.h"

#include <sstream>

#include "dbscore/common/string_util.h"

namespace dbscore::fleet {

double
ClassSnapshot::MissRate() const
{
    return completed == 0 ? 0.0
                          : static_cast<double>(deadline_misses) /
                                static_cast<double>(completed);
}

std::size_t
FleetSnapshot::Sum(std::size_t ClassSnapshot::*counter) const
{
    std::size_t n = 0;
    for (const ClassSnapshot& c : classes) {
        n += c.*counter;
    }
    return n;
}

std::size_t
FleetSnapshot::Settled() const
{
    return Sum(&ClassSnapshot::completed) +
           Sum(&ClassSnapshot::rejected_quota) +
           Sum(&ClassSnapshot::rejected_capacity) +
           Sum(&ClassSnapshot::expired) + Sum(&ClassSnapshot::failed);
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
    const std::size_t good =
        Sum(&ClassSnapshot::completed) - Sum(&ClassSnapshot::deadline_misses);
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
        if (devices[d].dispatches > 0 || devices[d].faults > 0) {
            os << StrFormat("%-7s:  ", kDeviceNames[d])
               << devices[d].ToString() << "\n";
        }
    }
    os << StrFormat("goodput:  %.1f within-deadline req/s over makespan ",
                    GoodputRps())
       << Makespan() << "\n";
    return os.str();
}

void
FleetStats::Count(SloClass cls, std::size_t ClassSnapshot::*counter)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++(classes_[static_cast<int>(cls)].totals.*counter);
}

void
FleetStats::RecordAnswer(SloClass cls, serve::RequestStatus status,
                         SimTime arrival, SimTime finish, bool degraded,
                         bool deadline_miss)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClassAccum& accum = classes_[static_cast<int>(cls)];
    switch (status) {
      case serve::RequestStatus::kCompleted:
        ++accum.totals.completed;
        accum.totals.degraded += degraded ? 1 : 0;
        accum.totals.deadline_misses += deadline_miss ? 1 : 0;
        accum.latency.Add((finish - arrival).seconds());
        break;
      case serve::RequestStatus::kExpired:
        ++accum.totals.expired;
        break;
      case serve::RequestStatus::kFailed:
        ++accum.totals.failed;
        break;
      case serve::RequestStatus::kRejected:
        ++accum.totals.rejected_capacity;
        break;
    }
    if (!any_arrival_ || arrival < totals_.first_arrival) {
        totals_.first_arrival = arrival;
        any_arrival_ = true;
    }
    totals_.last_finish = Max(totals_.last_finish, finish);
}

void
FleetStats::RecordDispatch(DeviceClass device, std::size_t num_requests,
                           std::size_t num_rows, SimTime busy, bool cold)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FleetDeviceSnapshot& dev = totals_.devices[static_cast<int>(device)];
    ++dev.dispatches;
    dev.requests += num_requests;
    dev.rows += num_rows;
    dev.busy = dev.busy + busy;
    if (cold) {
        ++dev.cold_invocations;
    }
    batch_requests_.Add(static_cast<double>(num_requests));
    batch_rows_.Add(static_cast<double>(num_rows));
}

void
FleetStats::RecordScale(DeviceClass device, int delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FleetDeviceSnapshot& dev = totals_.devices[static_cast<int>(device)];
    if (delta > 0) {
        ++dev.scale_ups;
    } else if (delta < 0) {
        ++dev.scale_downs;
    }
}

FleetSnapshot
FleetStats::Snapshot(const serve::DeviceLanes& lanes) const
{
    const std::array<serve::LaneCounters, 3> counters = lanes.Counters();
    std::array<std::size_t, 3> lane_counts;
    for (int d = 0; d < 3; ++d) {
        lane_counts[d] = lanes.Lanes(static_cast<DeviceClass>(d));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    FleetSnapshot snap = totals_;
    for (int c = 0; c < kNumSloClasses; ++c) {
        snap.classes[c] = classes_[c].totals;
        snap.classes[c].latency = classes_[c].latency.Summary();
    }
    for (int d = 0; d < 3; ++d) {
        static_cast<serve::LaneCounters&>(snap.devices[d]) = counters[d];
        snap.devices[d].lanes = lane_counts[d];
    }
    snap.batch_requests = batch_requests_.Summary();
    snap.batch_rows = batch_rows_.Summary();
    return snap;
}

void
FleetStats::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    totals_ = FleetSnapshot();
    for (ClassAccum& accum : classes_) {
        accum = ClassAccum();
    }
    batch_requests_ = serve::DistStats();
    batch_rows_ = serve::DistStats();
    any_arrival_ = false;
}

}  // namespace dbscore::fleet

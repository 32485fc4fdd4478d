#include "dbscore/serve/service_stats.h"

#include <array>
#include <sstream>

#include "dbscore/common/string_util.h"

namespace dbscore::serve {

void
DistStats::Add(double x)
{
    moments_.Add(x);
    quantiles_.Add(x);
}

DistSummary
DistStats::Summary() const
{
    DistSummary s;
    s.count = moments_.count();
    if (s.count == 0) {
        return s;
    }
    s.mean = moments_.mean();
    s.max = moments_.max();
    s.p50 = quantiles_.Quantile(0.50);
    s.p95 = quantiles_.Quantile(0.95);
    s.p99 = quantiles_.Quantile(0.99);
    return s;
}

SimTime
ServiceSnapshot::Makespan() const
{
    if (completed + expired + failed == 0) {
        return SimTime();
    }
    return Max(SimTime(), last_finish - first_arrival);
}

double
ServiceSnapshot::ThroughputRps() const
{
    SimTime span = Makespan();
    if (span.is_zero()) {
        return 0.0;
    }
    return static_cast<double>(completed) / span.seconds();
}

double
ServiceSnapshot::RowThroughput() const
{
    SimTime span = Makespan();
    if (span.is_zero()) {
        return 0.0;
    }
    std::size_t rows = 0;
    for (const DeviceServeStats& d : device) {
        rows += d.rows;
    }
    return static_cast<double>(rows) / span.seconds();
}

std::string
ServiceSnapshot::ToString() const
{
    std::ostringstream os;
    os << StrFormat(
        "requests: %zu submitted, %zu admitted, %zu completed, "
        "%zu rejected, %zu expired, %zu failed\n",
        submitted, admitted, completed, rejected, expired, failed);
    if (fault_attempts + retries + fallback_batches + breaker_opens > 0) {
        os << StrFormat(
            "faults:   %zu faulted attempts, %zu retries, "
            "%zu fallback batches, %zu breaker opens, "
            "%zu degraded completions, wasted ",
            fault_attempts, retries, fallback_batches, breaker_opens,
            degraded_completed)
           << fault_wasted << ", backoff " << retry_backoff << "\n";
    }
    os << StrFormat(
        "batches:  %zu dispatched, mean %.1f requests / %.0f rows, "
        "p95 %.0f requests\n",
        batches, batch_requests.mean, batch_rows.mean, batch_requests.p95);
    os << "latency:  p50 " << SimTime::Seconds(latency.p50)
       << ", p95 " << SimTime::Seconds(latency.p95)
       << ", p99 " << SimTime::Seconds(latency.p99)
       << ", max " << SimTime::Seconds(latency.max) << "\n";
    os << StrFormat(
        "load:     %.1f req/s, %.3g rows/s over makespan ",
        ThroughputRps(), RowThroughput())
       << Makespan() << "\n";
    static const char* kDeviceNames[3] = {"CPU ", "GPU ", "FPGA"};
    for (int d = 0; d < 3; ++d) {
        if (device[d].batches == 0 && device[d].faults == 0) {
            continue;
        }
        os << StrFormat(
            "%s:     %zu batches, %zu requests, %zu rows, %zu cold, busy ",
            kDeviceNames[d], device[d].batches, device[d].requests,
            device[d].rows, device[d].cold_invocations)
           << device[d].busy;
        if (device[d].faults > 0 ||
            device[d].breaker != BreakerState::kClosed) {
            os << StrFormat(", %zu faults, breaker %s", device[d].faults,
                            BreakerStateName(device[d].breaker));
        }
        os << "\n";
    }
    return os.str();
}

void
ServiceStats::RecordSubmitted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.submitted;
}

void
ServiceStats::RecordAdmitted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.admitted;
}

void
ServiceStats::RecordRejected()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.rejected;
}

void
ServiceStats::RecordExpired(SimTime arrival, SimTime finish)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.expired;
    if (!any_arrival_ || arrival < totals_.first_arrival) {
        totals_.first_arrival = arrival;
        any_arrival_ = true;
    }
    totals_.last_finish = Max(totals_.last_finish, finish);
}

void
ServiceStats::RecordBatch(DeviceClass device, std::size_t num_requests,
                          std::size_t num_rows, SimTime busy, bool cold)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.batches;
    DeviceServeStats& d = totals_.device[static_cast<int>(device)];
    ++d.batches;
    d.requests += num_requests;
    d.rows += num_rows;
    d.busy += busy;
    if (cold) {
        ++d.cold_invocations;
    }
    batch_requests_.Add(static_cast<double>(num_requests));
    batch_rows_.Add(static_cast<double>(num_rows));
}

void
ServiceStats::RecordCompleted(const RequestTiming& timing, SimTime arrival,
                              SimTime finish, bool degraded)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.completed;
    if (degraded) {
        ++totals_.degraded_completed;
    }
    if (!any_arrival_ || arrival < totals_.first_arrival) {
        totals_.first_arrival = arrival;
        any_arrival_ = true;
    }
    totals_.last_finish = Max(totals_.last_finish, finish);
    latency_.Add(timing.latency.seconds());
}

void
ServiceStats::RecordFailed(SimTime arrival, SimTime finish)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.failed;
    if (!any_arrival_ || arrival < totals_.first_arrival) {
        totals_.first_arrival = arrival;
        any_arrival_ = true;
    }
    totals_.last_finish = Max(totals_.last_finish, finish);
}

ServiceSnapshot
ServiceStats::Snapshot(const DeviceLanes& lanes) const
{
    const std::array<LaneCounters, 3> counters = lanes.Counters();
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceSnapshot snap = totals_;
    for (int d = 0; d < 3; ++d) {
        const LaneCounters& c = counters[d];
        snap.device[d].faults = c.faults;
        snap.device[d].breaker = c.breaker;
        snap.fault_attempts += c.faults;
        snap.retries += c.retries;
        snap.fallback_batches += c.fallbacks;
        snap.breaker_opens += c.breaker_opens;
        snap.fault_wasted += c.fault_wasted;
        snap.retry_backoff += c.retry_backoff;
    }
    snap.latency = latency_.Summary();
    snap.batch_requests = batch_requests_.Summary();
    snap.batch_rows = batch_rows_.Summary();
    return snap;
}

std::size_t
ServiceStats::Settled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_.completed + totals_.rejected + totals_.expired +
           totals_.failed;
}

void
ServiceStats::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    totals_ = ServiceSnapshot();
    any_arrival_ = false;
    latency_ = DistStats();
    batch_requests_ = DistStats();
    batch_rows_ = DistStats();
}

}  // namespace dbscore::serve

#include "dbscore/serve/service_stats.h"

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

std::string
DeviceSnapshot::ToString() const
{
    std::ostringstream os;
    os << StrFormat("%zu dispatches, %zu requests, %zu rows, %zu cold, "
                    "%zu lanes (+%zu/-%zu), busy ",
                    dispatches, requests, rows, cold_invocations, lanes,
                    scale_ups, scale_downs)
       << busy;
    if (faults + fallbacks + breaker_opens > 0 ||
        breaker != BreakerState::kClosed) {
        os << StrFormat(", %zu faults, %zu retries, %zu fallbacks, "
                        "%zu breaker opens, breaker %s",
                        faults, retries, fallbacks, breaker_opens,
                        BreakerStateName(breaker));
    }
    return os.str();
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
    os << StrFormat("load:     %.1f req/s over makespan ", ThroughputRps())
       << Makespan() << "\n";
    static const char* kDeviceNames[3] = {"CPU", "GPU", "FPGA"};
    for (int d = 0; d < 3; ++d) {
        if (device[d].dispatches > 0 || device[d].faults > 0) {
            os << StrFormat("%-7s:  ", kDeviceNames[d])
               << device[d].ToString() << "\n";
        }
    }
    return os.str();
}

}  // namespace dbscore::serve

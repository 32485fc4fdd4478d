#include "dbscore/fleet/fleet_proc.h"

#include <cstdint>
#include <string>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/serve/request.h"

namespace dbscore::fleet {

namespace {

QueryResult
SpFleetTenant(FleetService& service, const ExecStatement& stmt)
{
    auto tenant = GetIntParam(stmt, "tenant");
    if (!tenant.has_value() || *tenant < 0) {
        throw InvalidArgument(
            "sp_fleet_tenant: @tenant must be a non-negative integer");
    }
    const std::string model = GetStringParam(stmt, "model");
    const std::string cls_name = GetStringParam(stmt, "class");
    auto cls = ParseSloClass(cls_name);
    if (!cls.has_value()) {
        throw InvalidArgument(
            "sp_fleet_tenant: @class must be gold, silver, or bronze");
    }
    service.RegisterTenant(static_cast<std::uint64_t>(*tenant), model, *cls);

    QueryResult result;
    result.columns = {"tenant", "model", "class"};
    result.rows.push_back({*tenant, model,
                           std::string(SloClassName(*cls))});
    result.message = StrFormat("tenant %lld -> %s (%s), %zu tenant(s)",
                               static_cast<long long>(*tenant),
                               model.c_str(), SloClassName(*cls),
                               service.Stats().tenants);
    return result;
}

QueryResult
SpFleetSlo(FleetService& service, const ExecStatement& stmt)
{
    const std::string cls_name = GetStringParam(stmt, "class");
    auto cls = ParseSloClass(cls_name);
    if (!cls.has_value()) {
        throw InvalidArgument(
            "sp_fleet_slo: @class must be gold, silver, or bronze");
    }
    SloPolicy policy = service.config().slo[static_cast<int>(*cls)];
    if (auto deadline = GetIntParam(stmt, "deadline_ms");
        deadline.has_value()) {
        if (*deadline <= 0) {
            throw InvalidArgument(
                "sp_fleet_slo: @deadline_ms must be positive");
        }
        policy.deadline = SimTime::Millis(static_cast<double>(*deadline));
    }
    if (auto weight = GetDoubleParam(stmt, "weight"); weight.has_value()) {
        policy.weight = *weight;
    }
    if (auto quota = GetDoubleParam(stmt, "quota_rps"); quota.has_value()) {
        policy.quota_rps = *quota;
    }
    if (auto burst = GetDoubleParam(stmt, "quota_burst");
        burst.has_value()) {
        policy.quota_burst = *burst;
    }
    service.SetSloPolicy(*cls, policy);

    QueryResult result;
    result.columns = {"class", "deadline_ms", "weight", "quota_rps",
                      "quota_burst"};
    result.rows.push_back({std::string(SloClassName(*cls)),
                           policy.deadline.millis(), policy.weight,
                           policy.quota_rps, policy.quota_burst});
    result.message = StrFormat("%s SLO updated", SloClassName(*cls));
    return result;
}

QueryResult
SpFleetScore(FleetService& service, const ExecStatement& stmt)
{
    auto tenant = GetIntParam(stmt, "tenant");
    if (!tenant.has_value() || *tenant < 0) {
        throw InvalidArgument(
            "sp_fleet_score: @tenant must be a non-negative integer");
    }
    FleetRequest request;
    request.tenant_id = static_cast<std::uint64_t>(*tenant);
    if (auto rows = GetIntParam(stmt, "rows"); rows.has_value()) {
        if (*rows <= 0) {
            throw InvalidArgument(
                "sp_fleet_score: @rows must be a positive integer");
        }
        request.num_rows = static_cast<std::size_t>(*rows);
    }

    FleetReply reply = service.ScoreSync(std::move(request));
    if (reply.status == serve::RequestStatus::kRejected) {
        throw InvalidArgument("sp_fleet_score: rejected: " + reply.error);
    }

    QueryResult result;
    result.columns = {"status",   "class",         "device",
                      "backend",  "latency_ms",    "attempts",
                      "degraded", "deadline_miss", "registry_miss"};
    static const char* kDeviceNames[3] = {"cpu", "gpu", "fpga"};
    result.rows.push_back(
        {std::string(serve::RequestStatusName(reply.status)),
         std::string(SloClassName(reply.slo)),
         std::string(
             kDeviceNames[static_cast<int>(reply.device)]),
         std::string(reply.status == serve::RequestStatus::kCompleted
                         ? BackendName(reply.backend)
                         : "-"),
         reply.Latency().millis(),
         static_cast<std::int64_t>(reply.attempts),
         static_cast<std::int64_t>(reply.degraded ? 1 : 0),
         static_cast<std::int64_t>(reply.deadline_miss ? 1 : 0),
         static_cast<std::int64_t>(reply.registry_miss ? 1 : 0)});
    result.modeled_time = reply.Latency();
    result.message = StrFormat(
        "%s (%s) in %s (modeled), %zu attempt(s)%s%s",
        serve::RequestStatusName(reply.status), SloClassName(reply.slo),
        reply.Latency().ToString().c_str(), reply.attempts,
        reply.degraded ? ", degraded to CPU" : "",
        reply.registry_miss ? ", registry miss" : "");
    return result;
}

QueryResult
SpFleetStats(FleetService& service, const ExecStatement& stmt)
{
    const bool reset = GetIntParam(stmt, "reset").value_or(0) != 0;
    FleetSnapshot snap = service.Stats();
    QueryResult result;
    result.columns = {"metric", "value"};
    auto add = [&result](const std::string& metric, double value) {
        result.rows.push_back({metric, value});
    };
    add("tenants", static_cast<double>(snap.tenants));
    add("models", static_cast<double>(snap.models));
    add("submitted", static_cast<double>(snap.Submitted()));
    add("completed", static_cast<double>(snap.Completed()));
    add("goodput_rps", snap.GoodputRps());
    add("registry_hit_rate", snap.registry.HitRate());
    add("registry_resident", static_cast<double>(
                                 snap.registry.resident_models));
    add("registry_resident_bytes",
        static_cast<double>(snap.registry.resident_bytes));
    add("registry_evictions", static_cast<double>(
                                  snap.registry.evictions));
    add("registry_rebuilds", static_cast<double>(snap.registry.rebuilds));
    add("registry_build_ms", snap.registry.build_cost_total.millis());
    add("registry_build_wall_ms", snap.registry.build_wall_ms_total);
    for (int c = 0; c < kNumSloClasses; ++c) {
        const ClassSnapshot& cls = snap.classes[c];
        const char* name = SloClassName(static_cast<SloClass>(c));
        add(StrFormat("%s_submitted", name),
            static_cast<double>(cls.submitted));
        add(StrFormat("%s_completed", name),
            static_cast<double>(cls.completed));
        add(StrFormat("%s_rejected_quota", name),
            static_cast<double>(cls.rejected_quota));
        add(StrFormat("%s_rejected_capacity", name),
            static_cast<double>(cls.rejected_capacity));
        add(StrFormat("%s_expired", name),
            static_cast<double>(cls.expired));
        add(StrFormat("%s_failed", name), static_cast<double>(cls.failed));
        add(StrFormat("%s_degraded", name),
            static_cast<double>(cls.degraded));
        add(StrFormat("%s_deadline_miss_rate", name), cls.MissRate());
        add(StrFormat("%s_latency_p50_ms", name), cls.latency.p50 * 1e3);
        add(StrFormat("%s_latency_p99_ms", name), cls.latency.p99 * 1e3);
    }
    static const char* kDeviceNames[3] = {"cpu", "gpu", "fpga"};
    for (int d = 0; d < 3; ++d) {
        const FleetDeviceSnapshot& dev = snap.devices[d];
        add(StrFormat("%s_dispatches", kDeviceNames[d]),
            static_cast<double>(dev.dispatches));
        add(StrFormat("%s_lanes", kDeviceNames[d]),
            static_cast<double>(dev.lanes));
        add(StrFormat("%s_scale_ups", kDeviceNames[d]),
            static_cast<double>(dev.scale_ups));
        add(StrFormat("%s_scale_downs", kDeviceNames[d]),
            static_cast<double>(dev.scale_downs));
        add(StrFormat("%s_faults", kDeviceNames[d]),
            static_cast<double>(dev.faults));
        add(StrFormat("%s_fallbacks", kDeviceNames[d]),
            static_cast<double>(dev.fallbacks));
        add(StrFormat("%s_breaker_opens", kDeviceNames[d]),
            static_cast<double>(dev.breaker_opens));
        result.rows.push_back(
            {StrFormat("%s_breaker", kDeviceNames[d]),
             std::string(serve::BreakerStateName(dev.breaker))});
    }
    if (reset) {
        service.ResetStats();
    }
    result.message = StrFormat("%zu metrics%s", result.rows.size(),
                               reset ? ", counters reset" : "");
    return result;
}

}  // namespace

void
RegisterFleetProcedures(QueryEngine& engine, FleetService& service)
{
    engine.RegisterProcedure(
        "sp_fleet_tenant",
        [&service](QueryEngine&, const ExecStatement& stmt) {
            return SpFleetTenant(service, stmt);
        });
    engine.RegisterProcedure(
        "sp_fleet_slo",
        [&service](QueryEngine&, const ExecStatement& stmt) {
            return SpFleetSlo(service, stmt);
        });
    engine.RegisterProcedure(
        "sp_fleet_score",
        [&service](QueryEngine&, const ExecStatement& stmt) {
            return SpFleetScore(service, stmt);
        });
    engine.RegisterProcedure(
        "sp_fleet_stats",
        [&service](QueryEngine&, const ExecStatement& stmt) {
            return SpFleetStats(service, stmt);
        });
}

}  // namespace dbscore::fleet

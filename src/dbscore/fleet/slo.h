/**
 * @file
 * Per-tenant SLO classes and admission quotas.
 *
 * At fleet scale the question the paper asks per query — is the
 * offload worth its overheads? — becomes a resource-allocation
 * question: which tenant's request deserves the device first, and how
 * much load may one tenant impose on everyone else. dbscore::fleet
 * answers with three service classes (gold/silver/bronze), each
 * carrying a deadline, a weighted-fair-queueing weight, and a
 * token-bucket admission quota. The classes are deliberately coarse —
 * the point is differentiated tails under overload, not a general
 * QoS language.
 */
#ifndef DBSCORE_FLEET_SLO_H
#define DBSCORE_FLEET_SLO_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "dbscore/common/sim_time.h"

namespace dbscore::fleet {

/** Service class of a tenant. Order is priority order (gold first). */
enum class SloClass : std::uint8_t {
    kGold = 0,
    kSilver,
    kBronze,
};

inline constexpr int kNumSloClasses = 3;

/** Stable lowercase name, e.g. "gold". */
const char* SloClassName(SloClass cls);

/** Inverse of SloClassName (case-insensitive); nullopt if unknown. */
std::optional<SloClass> ParseSloClass(const std::string& name);

/** What one service class promises (and is allowed to consume). */
struct SloPolicy {
    /**
     * Deadline relative to arrival. A request whose modeled dispatch
     * would start past it expires; one that completes past it counts
     * as a deadline miss even though it was answered.
     */
    SimTime deadline = SimTime::Millis(500.0);
    /**
     * Weighted-fair-queueing weight: under backlog, a class receives
     * device capacity proportional to its weight.
     */
    double weight = 1.0;
    /**
     * Token-bucket admission quota per tenant of this class: requests
     * per modeled second, with at most @ref quota_burst banked. Zero
     * disables the quota (admission is bounded only by capacity).
     */
    double quota_rps = 0.0;
    /** Bucket capacity (burst allowance), in requests. */
    double quota_burst = 8.0;
};

/** Default gold/silver/bronze ladder used by FleetConfig. */
SloPolicy DefaultSloPolicy(SloClass cls);

/**
 * Deterministic token bucket over modeled time. Not thread-safe on its
 * own — FleetService serializes access per tenant under its admission
 * lock.
 */
class TokenBucket {
 public:
    TokenBucket() = default;
    TokenBucket(double rate_per_sec, double burst);

    /**
     * Refills for the modeled interval since the last call, then takes
     * @p tokens if available. Monotone in @p now: a stale (earlier)
     * stamp refills nothing.
     */
    bool TryTake(SimTime now, double tokens = 1.0);

 private:
    double rate_ = 0.0;
    double burst_ = 0.0;
    double level_ = 0.0;
    SimTime last_refill_;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_SLO_H

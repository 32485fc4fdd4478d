/**
 * @file
 * The planner: SELECT statement -> (cached) compiled physical plan.
 *
 * Pipeline per statement:
 *
 *   ParseSql -> BuildLogicalPlan -> RewritePlan -> PhysicalPlan
 *                (resolve+validate)  (push down)        (compile models)
 *
 * wrapped in an LRU plan cache keyed on the normalized statement text
 * (case-folded outside string literals, whitespace collapsed) and
 * invalidated by the Database catalog version. Planning emits a kPlan
 * trace stage; a cache hit emits kPlanCacheHit instead, so traces show
 * exactly which executions skipped model compilation.
 */
#ifndef DBSCORE_DBMS_PLAN_PLANNER_H
#define DBSCORE_DBMS_PLAN_PLANNER_H

#include <memory>
#include <string>

#include "dbscore/dbms/plan/physical.h"
#include "dbscore/dbms/plan/plan_cache.h"
#include "dbscore/dbms/plan/rewrite.h"
#include "dbscore/dbms/sql.h"

namespace dbscore::plan {

struct PlannerOptions {
    /** Run the rewriter (false = naive plans, the bench baseline). */
    bool optimize = true;
    /** LRU plan cache capacity (entries). */
    std::size_t cache_capacity = 64;
};

/** Plans and executes SELECT statements against one Database. */
class Planner {
 public:
    explicit Planner(Database& db, PlannerOptions options = {});

    /**
     * Returns the compiled plan for @p stmt, from cache when the
     * normalized @p sql_text matches a plan compiled at the current
     * catalog version.
     */
    std::shared_ptr<const PhysicalPlan> Plan(const SelectStatement& stmt,
                                             const std::string& sql_text);

    /** Plans (with caching) and executes in one step. */
    QueryResult ExecuteSelect(const SelectStatement& stmt,
                              const std::string& sql_text);

    /**
     * Parses @p sql and plans it; the statement must be a SELECT.
     * Entry point for procedures that receive a query as a string
     * parameter (sp_explain, sp_serve_query).
     * @throws InvalidArgument when @p sql is not a SELECT
     */
    std::shared_ptr<const PhysicalPlan> PlanQuery(const std::string& sql);

    PlanCacheStats CacheStats() const { return cache_.Stats(); }
    void ClearCache() { cache_.Clear(); }
    const PlannerOptions& options() const { return options_; }
    Database& db() { return db_; }

    /**
     * Cache key: lowercase outside single-quoted literals, runs of
     * whitespace collapsed to one space, trimmed. "SELECT X FROM T"
     * and "select  x from t" plan once.
     */
    static std::string NormalizeSql(const std::string& sql);

 private:
    Database& db_;
    PlannerOptions options_;
    PlanCache cache_;
};

}  // namespace dbscore::plan

#endif  // DBSCORE_DBMS_PLAN_PLANNER_H

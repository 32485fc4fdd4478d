/**
 * @file
 * Rule-based logical-plan rewriter: the two SQL+ML co-optimizations
 * EXEC sp_explain reports (bench/wallclock_query measures the first).
 * No rule narrows the scan's columns: a SCORE always reads just its own
 * feature columns, and a plain cell is read in place. No rule fuses
 * aggregates either: every SELECT folds its aggregates into the one
 * morsel loop (plan/physical.h).
 *
 *  1. predicate-pushdown —
 *     a. the plain numeric predicates over one feature column of a
 *        paged table (the first such conjunct's column) intersect into
 *        a zone-map ScanPredicate, letting the scan skip whole pages
 *        whose [min, max] cannot match; a contradictory range skips
 *        every page;
 *     b. an ordered "SCORE(...) op literal" conjunct whose score value
 *        is not otherwise needed is marked early-exit, pushing the
 *        comparison into ForestKernel::PredictThreshold, which stops
 *        accumulating trees once suffix bounds decide the predicate
 *        (exact; see DESIGN.md §14).
 *  2. score-topn-threshold — TOP n ... ORDER BY SCORE(...) scores its
 *     morsels against a threshold that only rises: once the TOP-N heap
 *     is full, a morsel's rows first run PredictThreshold against the
 *     heap's worst kept score, and only the rows that beat it are
 *     scored in full (DESIGN.md §14). Withdrawn by the physical plan
 *     when the kernel cannot decide a row before its last tree.
 *
 * Every applied rule appends a human-readable entry to
 * LogicalPlan::applied_rules. Rules only annotate the plan; executing
 * an annotated plan is bit-identical to executing the naive one.
 */
#ifndef DBSCORE_DBMS_PLAN_REWRITE_H
#define DBSCORE_DBMS_PLAN_REWRITE_H

#include "dbscore/dbms/plan/logical.h"

namespace dbscore::plan {

/** Name of rule 2 in LogicalPlan::applied_rules. */
inline constexpr const char* kRisingThresholdRule = "score-topn-threshold";

/** Applies every rewrite rule to @p plan in place (the naive planner
 * skips this call). */
void RewritePlan(LogicalPlan& plan);

}  // namespace dbscore::plan

#endif  // DBSCORE_DBMS_PLAN_REWRITE_H
